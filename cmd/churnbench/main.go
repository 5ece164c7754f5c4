// Command churnbench runs the steady-state availability study: sites fail
// and repair (exponential MTTF/MTTR), partitions optionally form and heal,
// and a continuous transaction stream runs the full commit protocol while
// the fault timeline plays out. It prints per-protocol comparison tables
// and tracks machine-readable results.
//
//	churnbench -runs 16
//	churnbench -mttf 2s -mttr 400ms -horizon 5s
//	churnbench -partmtbf 1500ms -partmttr 500ms     enable partition churn
//	churnbench -protocol QC1,QC2,2PC                study a subset
//	churnbench -strategy missing-writes             adaptive data access
//	churnbench -strategy dynamic                    dynamic vote reassignment
//	churnbench -strategy both                       quorum vs missing-writes
//	churnbench -strategy all                        all three strategies
//	churnbench -sweep mttr                          MTTR sensitivity: repair
//	                                                speed from mttr/4 to 4×mttr
//	churnbench -sweep mttf                          failure-rate sensitivity
//	churnbench -sweep sites                         cluster-size scaling:
//	                                                8→128 sites, 128→2048 items
//	churnbench -engine hybrid                       analytic fast path
//	churnbench -engine both                         replay vs hybrid per point
//	churnbench -workers 8                           parallel run evaluation
//	churnbench -ci                                  95% Wilson intervals
//	churnbench -json PATH                           write results + runs/sec
//	                                                (e.g. BENCH_churn.json)
//	churnbench -cpuprofile cpu.pprof                write pprof profiles
//	churnbench -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"qcommit/internal/churn"
	"qcommit/internal/core"
	"qcommit/internal/sim"
	"qcommit/internal/voting"
)

type runConfig struct {
	runs     int
	seed     int64
	workers  int
	specs    []core.Spec
	ci       bool
	progress bool
}

// jsonProtocol is one protocol column of a study in -json output.
type jsonProtocol struct {
	Label           string       `json:"label"`
	Runs            int          `json:"runs"`
	Submitted       int          `json:"submitted"`
	CommittedFrac   float64      `json:"committed_frac"`
	AbortedFrac     float64      `json:"aborted_frac"`
	BlockedFrac     float64      `json:"blocked_frac"`
	BlockedShare    float64      `json:"blocked_time_share"`
	ReadAvail       float64      `json:"read_avail"`
	WriteAvail      float64      `json:"write_avail"`
	P50Ms           float64      `json:"p50_ms"`
	P95Ms           float64      `json:"p95_ms"`
	P99Ms           float64      `json:"p99_ms"`
	Violations      int          `json:"violations"`
	Counts          churn.Counts `json:"counts"`
	CommittedCILo   float64      `json:"committed_ci_lo"`
	CommittedCIHi   float64      `json:"committed_ci_hi"`
	TerminatedCILo  float64      `json:"terminated_ci_lo"`
	TerminatedCIHi  float64      `json:"terminated_ci_hi"`
	TerminatedCount int          `json:"terminated"`
}

// jsonRun is one parameter point of a (possibly swept) invocation.
type jsonRun struct {
	Params     churn.Params `json:"params"`
	Strategy   string       `json:"strategy"`
	Engine     string       `json:"engine"`
	MTTFMs     float64      `json:"mttf_ms"`
	MTTRMs     float64      `json:"mttr_ms"`
	Runs       int          `json:"runs"`
	Seed       int64        `json:"seed"`
	Workers    int          `json:"workers"`
	ElapsedSec float64      `json:"elapsed_sec"`
	RunsPerSec float64      `json:"runs_per_sec"`
	// TrialsPerSec counts (run, protocol) evaluations per second — the
	// study's unit of work, comparable across engines and sweeps.
	TrialsPerSec float64        `json:"trials_per_sec"`
	Protocols    []jsonProtocol `json:"protocols"`
}

// jsonDoc is the top-level -json document.
type jsonDoc struct {
	Command string    `json:"command"`
	Runs    []jsonRun `json:"runs"`
}

func main() {
	runs := flag.Int("runs", 16, "independent timeline runs per parameter point")
	seed := flag.Int64("seed", 1, "base seed (run r draws from seed+r)")
	protocols := flag.String("protocol", "all", "comma-separated protocols (2PC,3PC,SkeenQ,QC1,QC2) or 'all'")
	sites := flag.Int("sites", 8, "number of database sites")
	items := flag.Int("items", 4, "number of replicated items")
	copies := flag.Int("copies", 4, "copies per item")
	writes := flag.Int("writes", 2, "items written per transaction")
	hot := flag.Float64("hot", 0, "fraction of writes hitting the first item (hot spot)")
	arrival := flag.Duration("arrival", 100*time.Millisecond, "mean transaction inter-arrival time (virtual)")
	mttf := flag.Duration("mttf", 2*time.Second, "per-site mean time to failure (0 disables site churn)")
	mttr := flag.Duration("mttr", 400*time.Millisecond, "per-site mean time to repair")
	partMTBF := flag.Duration("partmtbf", 0, "mean time between partitions (0 disables partition churn)")
	partMTTR := flag.Duration("partmttr", 500*time.Millisecond, "mean partition duration")
	groups := flag.Int("groups", 3, "max partition groups")
	horizon := flag.Duration("horizon", 5*time.Second, "virtual-time length of each run")
	strategy := flag.String("strategy", "quorum", "data-access strategy: 'quorum', 'missing-writes' (alias 'mw'), 'dynamic' (alias 'dv'), 'both' (quorum + missing-writes), or 'all' (all three)")
	sweep := flag.String("sweep", "", "sweep a parameter: 'mttr' (repair speed), 'mttf' (failure rate) or 'sites' (cluster size ×1..×16 at constant aggregate fault and load rates)")
	engineArg := flag.String("engine", "replay", "study engine: 'replay', 'hybrid' (identical fates, analytic fast path) or 'both'")
	workers := flag.Int("workers", 0, "run-evaluation worker goroutines (0 = GOMAXPROCS)")
	ci := flag.Bool("ci", false, "print 95% Wilson confidence intervals")
	jsonPath := flag.String("json", "", "write machine-readable results (with runs/sec) to this path")
	progress := flag.Bool("progress", false, "report run completion with ETA on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path at exit")
	flag.Parse()
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "-runs %d: must be at least 1\n", *runs)
		os.Exit(1)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "-workers %d: must be at least 0 (0 = GOMAXPROCS)\n", *workers)
		os.Exit(1)
	}
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	specs, err := selectSpecs(*protocols)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	strategies, err := selectStrategies(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	engines, err := selectEngines(*engineArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Printf("wrote %s\n", *memProfile)
		}()
	}

	base := churn.Params{
		NumSites:         *sites,
		NumItems:         *items,
		CopiesPerItem:    *copies,
		WritesPerTxn:     *writes,
		HotFraction:      *hot,
		MeanInterarrival: sim.Duration(arrival.Nanoseconds()),
		MTTF:             sim.Duration(mttf.Nanoseconds()),
		MTTR:             sim.Duration(mttr.Nanoseconds()),
		PartitionMTBF:    sim.Duration(partMTBF.Nanoseconds()),
		PartitionMTTR:    sim.Duration(partMTTR.Nanoseconds()),
		MaxGroups:        *groups,
		Horizon:          sim.Duration(horizon.Nanoseconds()),
	}
	cfg := runConfig{runs: *runs, seed: *seed, workers: *workers, specs: specs, ci: *ci, progress: *progress}

	var doc jsonDoc
	doc.Command = "churnbench " + strings.Join(os.Args[1:], " ")
	record := func(r jsonRun) { doc.Runs = append(doc.Runs, r) }

	// Sensitivity sweeps scale the swept mean by ¼, ½, 1, 2 and 4.
	multipliers := []struct {
		num, den sim.Duration
	}{{1, 4}, {1, 2}, {1, 1}, {2, 1}, {4, 1}}

	// evaluate runs one parameter point under every selected engine.
	evaluate := func(p churn.Params) {
		for _, eng := range engines {
			p := p
			p.Engine = eng
			if len(engines) > 1 {
				fmt.Printf("[engine: %v]\n", eng)
			}
			record(run(p, cfg))
		}
	}

	for _, st := range strategies {
		base := base
		base.Strategy = st
		if len(strategies) > 1 {
			fmt.Printf("=== strategy: %v ===\n", st)
		}
		switch *sweep {
		case "":
			evaluate(base)
		case "mttr":
			for _, m := range multipliers {
				p := base
				p.MTTR = base.MTTR * m.num / m.den
				fmt.Printf("--- MTTR = %v (MTTF %v) ---\n", time.Duration(p.MTTR), time.Duration(p.MTTF))
				evaluate(p)
			}
		case "mttf":
			for _, m := range multipliers {
				p := base
				p.MTTF = base.MTTF * m.num / m.den
				fmt.Printf("--- MTTF = %v (MTTR %v) ---\n", time.Duration(p.MTTF), time.Duration(p.MTTR))
				evaluate(p)
			}
		case "sites":
			// Cluster-size scaling: ×1 to ×16 sites (8 → 128 with default
			// -sites), the item space growing with the cluster (16 items
			// per site, which keeps conflict clustering — and with it the
			// hybrid engine's fallback rate — low at every scale), the
			// aggregate load rate growing with the cluster
			// (per-cluster inter-arrival shrinks ×m) and the aggregate
			// fault rate held constant (per-site MTTF grows ×m). Unless
			// set explicitly, the steady-state scaling study uses mild
			// churn — MTTF 20s, MTTR 1s at the 8-site baseline — so the
			// fault spacing stays well clear of the commit window at every
			// scale.
			if !setFlags["mttf"] && base.MTTF > 0 {
				base.MTTF = 20 * sim.Second
			}
			if !setFlags["mttr"] && base.MTTR > 0 {
				base.MTTR = sim.Second
			}
			for _, m := range []int{1, 2, 4, 8, 16} {
				p := base
				p.NumSites = base.NumSites * m
				p.NumItems = p.NumSites * 16
				p.MTTF = base.MTTF * sim.Duration(m)
				p.MeanInterarrival = base.MeanInterarrival / sim.Duration(m)
				if p.MeanInterarrival <= 0 {
					p.MeanInterarrival = 1
				}
				fmt.Printf("--- %d sites × %d items ---\n", p.NumSites, p.NumItems)
				evaluate(p)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown sweep %q (want 'mttr', 'mttf' or 'sites')\n", *sweep)
			os.Exit(2)
		}
	}

	if *jsonPath != "" {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

func selectSpecs(arg string) ([]core.Spec, error) {
	all := churn.StandardBuilders()
	if arg == "" || arg == "all" {
		return all, nil
	}
	var out []core.Spec
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(all, func(s core.Spec) bool { return strings.EqualFold(s.Name(), name) })
		if i < 0 {
			return nil, fmt.Errorf("unknown protocol %q (want 2PC, 3PC, SkeenQ, QC1 or QC2)", name)
		}
		out = append(out, all[i])
	}
	return out, nil
}

func selectEngines(arg string) ([]churn.Engine, error) {
	if strings.ToLower(strings.TrimSpace(arg)) == "both" {
		return []churn.Engine{churn.EngineReplay, churn.EngineHybrid}, nil
	}
	e, err := churn.ParseEngine(arg)
	if err != nil {
		return nil, fmt.Errorf("%v (or 'both')", err)
	}
	return []churn.Engine{e}, nil
}

func selectStrategies(arg string) ([]voting.Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(arg)) {
	case "both":
		return []voting.Strategy{voting.StrategyQuorum, voting.StrategyMissingWrites}, nil
	case "all":
		return []voting.Strategy{voting.StrategyQuorum, voting.StrategyMissingWrites, voting.StrategyDynamic}, nil
	}
	s, err := voting.ParseStrategy(arg)
	if err != nil {
		return nil, fmt.Errorf("%v (or 'both' / 'all')", err)
	}
	return []voting.Strategy{s}, nil
}

func run(params churn.Params, cfg runConfig) jsonRun {
	opts := churn.Options{Workers: cfg.workers}
	start := time.Now()
	if cfg.progress {
		opts.Progress = func(done, total int) {
			elapsed := time.Since(start)
			eta := "?"
			if done > 0 {
				eta = (elapsed / time.Duration(done) * time.Duration(total-done)).Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr, "\r%d/%d runs (%3.0f%%, ETA %s)   ", done, total, 100*float64(done)/float64(total), eta)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	results, err := churn.StudyParallel(params, cfg.runs, cfg.seed, cfg.specs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	trials := cfg.runs * len(cfg.specs)
	fmt.Printf("churn: %d sites, %d items ×%d copies, %d written, strategy %v, engine %v, arrival %v, MTTF %v, MTTR %v",
		params.NumSites, params.NumItems, params.CopiesPerItem, params.WritesPerTxn,
		params.Strategy, params.Engine, time.Duration(params.MeanInterarrival), time.Duration(params.MTTF), time.Duration(params.MTTR))
	if params.PartitionMTBF > 0 {
		fmt.Printf(", partitions every %v for %v", time.Duration(params.PartitionMTBF), time.Duration(params.PartitionMTTR))
	}
	fmt.Printf("\nhorizon %v ×%d runs (%.1f runs/s, %.1f trials/s)\n",
		time.Duration(params.Horizon), cfg.runs, float64(cfg.runs)/elapsed.Seconds(), float64(trials)/elapsed.Seconds())
	if cfg.ci {
		fmt.Print(churn.FormatTableCI(results))
	} else {
		fmt.Print(churn.FormatTable(results))
	}
	fmt.Println()

	rec := jsonRun{
		Params:       params,
		Strategy:     params.Strategy.String(),
		Engine:       params.Engine.String(),
		MTTFMs:       float64(params.MTTF) / 1e6,
		MTTRMs:       float64(params.MTTR) / 1e6,
		Runs:         cfg.runs,
		Seed:         cfg.seed,
		Workers:      cfg.workers,
		ElapsedSec:   elapsed.Seconds(),
		RunsPerSec:   float64(cfg.runs) / elapsed.Seconds(),
		TrialsPerSec: float64(trials) / elapsed.Seconds(),
	}
	for _, r := range results {
		clo, chi := r.CommittedCI()
		tlo, thi := r.TerminatedCI()
		rec.Protocols = append(rec.Protocols, jsonProtocol{
			Label:           r.Label,
			Runs:            r.Runs,
			Submitted:       r.Counts.Submitted,
			CommittedFrac:   r.Counts.CommittedFraction(),
			AbortedFrac:     r.Counts.AbortedFraction(),
			BlockedFrac:     r.Counts.BlockedFraction(),
			BlockedShare:    r.Counts.BlockedTimeShare(),
			ReadAvail:       r.Counts.ReadAvailability(),
			WriteAvail:      r.Counts.WriteAvailability(),
			P50Ms:           float64(r.LatencyPercentile(50)) / 1e6,
			P95Ms:           float64(r.LatencyPercentile(95)) / 1e6,
			P99Ms:           float64(r.LatencyPercentile(99)) / 1e6,
			Violations:      r.Violations,
			Counts:          r.Counts,
			CommittedCILo:   clo,
			CommittedCIHi:   chi,
			TerminatedCILo:  tlo,
			TerminatedCIHi:  thi,
			TerminatedCount: r.Counts.Committed + r.Counts.Aborted,
		})
	}
	return rec
}
