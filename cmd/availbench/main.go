// Command availbench runs the availability Monte Carlo sweep (the paper's
// claim C1: the quorum-based termination protocols keep more data available
// than Skeen's quorum protocol, 3PC and 2PC) and prints comparison tables.
//
//	availbench -trials 500
//	availbench -trials 500 -sites 12 -copies 5 -items 6 -writes 3 -groups 4
//	availbench -sweep groups     sweep the number of partition groups
//	availbench -sweep copies     sweep the replication degree
//	availbench -sweep sites      sweep the cluster size
//	availbench -sweep writes     sweep the transaction writeset size
//	availbench -workers 8        parallel trial evaluation (0 = all cores)
//	availbench -engine replay    evaluate trials through the discrete-event
//	                             simulator instead of the analytic quorum
//	                             kernel (the default, "analytic", computes
//	                             identical counts ~40× faster; replay is the
//	                             oracle)
//	availbench -ci               print 95% Wilson confidence intervals
//	availbench -json PATH        also write machine-readable results with
//	                             trials/sec throughput (e.g. BENCH_avail.json)
//	availbench -progress         report trial completion on stderr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"qcommit/internal/avail"
)

type runConfig struct {
	trials   int
	seed     int64
	workers  int
	engine   avail.Engine
	ci       bool
	progress bool
}

// jsonProtocol is one protocol column of a run in -json output.
type jsonProtocol struct {
	Label      string       `json:"label"`
	Trials     int          `json:"trials"`
	TermRate   float64      `json:"term_rate"`
	Blocked    int          `json:"blocked"`
	ReadAvail  float64      `json:"read_avail"`
	WriteAvail float64      `json:"write_avail"`
	Violations int          `json:"violations"`
	Counts     avail.Counts `json:"counts"`
}

// jsonRun is one parameter point of a (possibly swept) benchmark invocation.
type jsonRun struct {
	Params       avail.ScenarioParams `json:"params"`
	Engine       string               `json:"engine"`
	Workers      int                  `json:"workers"`
	Trials       int                  `json:"trials"`
	Seed         int64                `json:"seed"`
	ElapsedSec   float64              `json:"elapsed_sec"`
	TrialsPerSec float64              `json:"trials_per_sec"`
	Protocols    []jsonProtocol       `json:"protocols"`
}

// jsonDoc is the top-level -json document, suitable for tracking the perf
// trajectory (trials_per_sec) and result stability across commits.
type jsonDoc struct {
	Command string    `json:"command"`
	Runs    []jsonRun `json:"runs"`
}

func main() {
	trials := flag.Int("trials", 200, "number of random scenarios")
	seed := flag.Int64("seed", 1, "base seed")
	sites := flag.Int("sites", 8, "number of database sites")
	items := flag.Int("items", 4, "number of replicated items")
	copies := flag.Int("copies", 4, "copies per item")
	writes := flag.Int("writes", 2, "items written per transaction")
	groups := flag.Int("groups", 3, "max partition groups")
	votePhase := flag.Int("votephase", 25, "percent of scenarios interrupted during the vote phase (0-100)")
	sweep := flag.String("sweep", "", "sweep a parameter: 'groups', 'copies', 'sites' or 'writes'")
	workers := flag.Int("workers", 0, "trial-evaluation worker goroutines (0 = GOMAXPROCS)")
	engineFlag := flag.String("engine", "analytic", "trial evaluation engine: 'analytic' (quorum arithmetic) or 'replay' (discrete-event oracle)")
	ci := flag.Bool("ci", false, "print 95% Wilson confidence intervals")
	jsonPath := flag.String("json", "", "write machine-readable results (with trials/sec) to this path")
	progress := flag.Bool("progress", false, "report trial completion on stderr")
	flag.Parse()
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "-trials %d: must be at least 1\n", *trials)
		os.Exit(1)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "-workers %d: must be at least 0 (0 = GOMAXPROCS)\n", *workers)
		os.Exit(1)
	}

	eng, err := avail.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	base := avail.ScenarioParams{
		NumSites:      *sites,
		NumItems:      *items,
		CopiesPerItem: *copies,
		ItemsPerTxn:   *writes,
		MaxGroups:     *groups,
		VotePhasePct:  *votePhase,
	}
	cfg := runConfig{trials: *trials, seed: *seed, workers: *workers, engine: eng, ci: *ci, progress: *progress}

	var doc jsonDoc
	doc.Command = "availbench " + strings.Join(os.Args[1:], " ")
	record := func(r jsonRun) { doc.Runs = append(doc.Runs, r) }

	switch *sweep {
	case "":
		record(run(base, cfg))
	case "groups":
		for g := 2; g <= 5; g++ {
			p := base
			p.MaxGroups = g
			fmt.Printf("--- max partition groups = %d ---\n", g)
			record(run(p, cfg))
		}
	case "copies":
		// Odd degrees from 3 up, always ending at full replication so an
		// even -sites still exercises copies == sites.
		for _, c := range sweepValues(3, *sites, 2) {
			p := base
			p.CopiesPerItem = c
			fmt.Printf("--- copies per item = %d ---\n", c)
			record(run(p, cfg))
		}
	case "sites":
		lo := *copies // smallest cluster that can hold every replica
		if lo < 2 {
			lo = 2
		}
		hi := 16 // default ceiling: double the default cluster size
		if *sites > hi {
			hi = *sites
		}
		if lo > hi {
			hi = lo
		}
		for _, s := range sweepValues(lo, hi, 2) {
			p := base
			p.NumSites = s
			fmt.Printf("--- sites = %d ---\n", s)
			record(run(p, cfg))
		}
	case "writes":
		for w := 1; w <= *items; w++ {
			p := base
			p.ItemsPerTxn = w
			fmt.Printf("--- items written per transaction = %d ---\n", w)
			record(run(p, cfg))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown sweep %q\n", *sweep)
		os.Exit(2)
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

// sweepValues steps from lo by step, always including hi as the endpoint.
func sweepValues(lo, hi, step int) []int {
	var vs []int
	for v := lo; v < hi; v += step {
		vs = append(vs, v)
	}
	if len(vs) == 0 || vs[len(vs)-1] != hi {
		vs = append(vs, hi)
	}
	return vs
}

func run(params avail.ScenarioParams, cfg runConfig) jsonRun {
	opts := avail.MCOptions{Workers: cfg.workers, Engine: cfg.engine}
	if cfg.progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d trials", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	start := time.Now()
	results, err := avail.MonteCarloParallel(params, cfg.trials, cfg.seed, avail.StandardBuilders(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	fmt.Printf("scenarios: %d sites, %d items ×%d copies, %d written, ≤%d groups, %d trials (engine %s, %.0f trials/s)\n",
		params.NumSites, params.NumItems, params.CopiesPerItem, params.ItemsPerTxn, params.MaxGroups, cfg.trials,
		cfg.engine, float64(cfg.trials)/elapsed.Seconds())
	if cfg.ci {
		fmt.Print(avail.FormatMCTableCI(results))
	} else {
		fmt.Print(avail.FormatMCTable(results))
	}
	fmt.Println("note: 3PC terminates every partition but its violation count shows the price (Example 2).")
	fmt.Println()

	rec := jsonRun{
		Params:       params,
		Engine:       cfg.engine.String(),
		Workers:      cfg.workers,
		Trials:       cfg.trials,
		Seed:         cfg.seed,
		ElapsedSec:   elapsed.Seconds(),
		TrialsPerSec: float64(cfg.trials) / elapsed.Seconds(),
	}
	for _, r := range results {
		rec.Protocols = append(rec.Protocols, jsonProtocol{
			Label:      r.Label,
			Trials:     r.Trials,
			TermRate:   r.Counts.TerminationRate(),
			Blocked:    r.Counts.Blocked,
			ReadAvail:  r.Counts.ReadAvailability(),
			WriteAvail: r.Counts.WriteAvailability(),
			Violations: r.Violations,
			Counts:     r.Counts,
		})
	}
	return rec
}
