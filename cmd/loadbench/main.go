// Command loadbench drives sustained transaction load through a live qcommit
// cluster and reports commit throughput and latency — the companion of the
// Monte Carlo availability benchmarks, measuring the runtime instead of the
// protocol math. The cluster runs in-process, either on the inproc fabric or
// on real loopback TCP sockets, with each site's WAL selectable between the
// in-memory log, the fsync-per-append FileLog, and the group-commit
// GroupLog, so the fast-commit-path optimizations are measurable against
// their baselines in one binary.
//
// Two load modes:
//
//	closed loop (default): -clients N goroutines each submit a transaction,
//	    wait for its outcome, and immediately submit the next — throughput
//	    is limited by commit latency, the classic interactive shape.
//	open loop: -rate R submits R transactions per second regardless of
//	    completions, the arrival-driven shape; overload shows up as latency
//	    growth and unresolved outcomes rather than reduced submission.
//
// Examples:
//
//	loadbench -transport inproc -clients 16 -duration 2s
//	loadbench -transport tcp -wal group -lockshards 16 -zipf 1.2
//	loadbench -rate 500 -duration 5s -wal file
//
// loadbench is the interactive load tool. The repository's measured,
// regression-gated benchmark is bench/ (see bench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"qcommit/internal/live"
	"qcommit/internal/obs"
	"qcommit/internal/protocols"
	istats "qcommit/internal/stats"
	"qcommit/internal/transport/inproc"
	"qcommit/internal/transport/tcp"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
	"qcommit/internal/workload"
)

// params is one benchmark configuration.
type params struct {
	Label       string        `json:"label"`
	Transport   string        `json:"transport"`
	Protocol    string        `json:"protocol"`
	Sites       int           `json:"sites"`
	Items       int           `json:"items"`
	Writes      int           `json:"writes_per_txn"`
	ZipfS       float64       `json:"zipf_s"`
	Hot         float64       `json:"hot_fraction"`
	Clients     int           `json:"clients"`
	Rate        float64       `json:"rate_per_sec"` // 0 = closed loop
	Duration    time.Duration `json:"-"`
	WAL         string        `json:"wal"`
	LockShards  int           `json:"lock_shards"`
	TimeoutBase time.Duration `json:"-"`
	Seed        int64         `json:"seed"`
}

// result is one row of the JSON document.
type result struct {
	params
	DurationMs    float64 `json:"duration_ms"`
	TimeoutBaseMs float64 `json:"timeout_base_ms"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	Completed     int     `json:"completed"`
	Committed     int     `json:"committed"`
	Aborted       int     `json:"aborted"`
	Unresolved    int     `json:"unresolved"`
	TxnsPerSec    float64 `json:"txns_per_sec"`
	AbortRate     float64 `json:"abort_rate"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	WALFsyncs     uint64  `json:"wal_fsyncs"`
	WriteFrames   uint64  `json:"write_frames"`
	WriteBatches  uint64  `json:"write_batches"`

	// Stage-level breakdowns scraped from the cluster's obs registry (all
	// sites merged), present when -obs is on. Together they decompose the
	// end-to-end commit latency above: where a transaction waited for locks
	// and how long it held them, how long appends waited for the group
	// fsync (and how big the batches got), and how long frames sat in the
	// transport's write queues.
	LockWaitP99Ms     float64 `json:"lock_wait_p99_ms,omitempty"`
	LockHoldP99Ms     float64 `json:"lock_hold_p99_ms,omitempty"`
	WALFlushWaitP99Ms float64 `json:"wal_flush_wait_p99_ms,omitempty"`
	WALSyncP99Ms      float64 `json:"wal_sync_p99_ms,omitempty"`
	WALBatchMean      float64 `json:"wal_batch_mean,omitempty"`
	WALBatchP95       float64 `json:"wal_batch_p95,omitempty"`
	FlushReleaseP99Ms float64 `json:"flush_release_wait_p99_ms,omitempty"`
	NetQueueP99Ms     float64 `json:"net_enqueue_to_write_p99_ms,omitempty"`
	NetShed           uint64  `json:"net_shed,omitempty"`
	LockDeadlocks     uint64  `json:"lock_deadlocks,omitempty"`
	LockWouldBlock    uint64  `json:"lock_wouldblock,omitempty"`
	TermRounds        uint64  `json:"term_rounds,omitempty"`
}

// doc is the top-level JSON document (same convention as BENCH_avail.json
// and BENCH_churn.json: the command line plus one row per run).
type doc struct {
	Command string   `json:"command"`
	Runs    []result `json:"runs"`
}

func main() {
	var (
		transportF = flag.String("transport", "inproc", "message fabric: inproc or tcp")
		protoF     = flag.String("protocol", "qc1", "commit protocol: qc1, qc2, 2pc, 3pc or skeenq")
		sitesF     = flag.Int("sites", 4, "number of database sites")
		itemsF     = flag.Int("items", 16, "number of items, each replicated at every site with majority quorums")
		writesF    = flag.Int("writes", 1, "items written per transaction")
		zipfF      = flag.Float64("zipf", 0, "zipfian item skew exponent (>1; 0 = uniform)")
		hotF       = flag.Float64("hot", 0, "single-hot-spot fraction in [0,1) (mutually exclusive with -zipf)")
		clientsF   = flag.Int("clients", 16, "closed-loop client goroutines")
		rateF      = flag.Float64("rate", 0, "open-loop submission rate per second (0 = closed loop)")
		durationF  = flag.Duration("duration", 2*time.Second, "how long to apply load")
		txnsF      = flag.Int("txns", 0, "stop after this many completed transactions (0 = run for -duration)")
		walF       = flag.String("wal", "mem", "per-site WAL: mem, file (fsync per append) or group (group commit)")
		waldirF    = flag.String("waldir", "", "directory for file/group WALs (default: a temp dir, removed afterwards)")
		shardsF    = flag.Int("lockshards", 0, "lock-manager shards per site (0 = default, 1 = unsharded baseline)")
		timeoutF   = flag.Duration("timeout-base", 200*time.Millisecond, "protocol timeout unit T")
		seedF      = flag.Int64("seed", 1, "workload seed")
		jsonF      = flag.String("json", "", "write machine-readable results to this path")
		obsF       = flag.Bool("obs", true, "attach the obs metrics registry to every run and report stage-level latency breakdowns")
	)
	flag.Parse()

	p := params{
		Label:       fmt.Sprintf("%s/%s-wal/shards=%d", *transportF, *walF, *shardsF),
		Transport:   *transportF,
		Protocol:    *protoF,
		Sites:       *sitesF,
		Items:       *itemsF,
		Writes:      *writesF,
		ZipfS:       *zipfF,
		Hot:         *hotF,
		Clients:     *clientsF,
		Rate:        *rateF,
		Duration:    *durationF,
		WAL:         *walF,
		LockShards:  *shardsF,
		TimeoutBase: *timeoutF,
		Seed:        *seedF,
	}
	r, err := runOne(p, *waldirF, *txnsF, *obsF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	out := doc{Command: "loadbench " + strings.Join(os.Args[1:], " "), Runs: []result{r}}
	fmt.Printf("%-40s %8.1f txn/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms  abort %5.1f%%  (%d committed, %d aborted, %d unresolved)\n",
		r.Label, r.TxnsPerSec, r.P50Ms, r.P95Ms, r.P99Ms, 100*r.AbortRate, r.Committed, r.Aborted, r.Unresolved)

	if *jsonF != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonF, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadbench:", err)
			os.Exit(1)
		}
		fmt.Printf("loadbench: wrote %s\n", *jsonF)
	}
}

// fsyncCounter is implemented by WALs that count their fsyncs.
type fsyncCounter interface{ Fsyncs() uint64 }

func runOne(p params, waldir string, maxTxns int, withObs bool) (result, error) {
	sites := make([]types.SiteID, p.Sites)
	for i := range sites {
		sites[i] = types.SiteID(i + 1)
	}
	configs := make([]voting.ItemConfig, p.Items)
	for i := range configs {
		copies := make([]voting.Copy, len(sites))
		for j, s := range sites {
			copies[j] = voting.Copy{Site: s, Votes: 1}
		}
		w := len(sites)/2 + 1
		r := len(sites) + 1 - w
		configs[i] = voting.ItemConfig{Item: types.ItemID(fmt.Sprintf("k%03d", i)), Copies: copies, R: r, W: w}
	}
	asgn, err := voting.NewAssignment(configs...)
	if err != nil {
		return result{}, err
	}
	spec, err := protocols.ByName(p.Protocol, sites)
	if err != nil {
		return result{}, err
	}

	cfg := live.Config{
		Assignment: asgn,
		Spec:       spec,
		// The benchmark measures the runtime, not simulated propagation:
		// keep the inproc fabric's injected delay minimal.
		MinDelay:    time.Microsecond,
		MaxDelay:    20 * time.Microsecond,
		TimeoutBase: p.TimeoutBase,
		Seed:        p.Seed,
		LockShards:  p.LockShards,
	}
	var reg *obs.Registry
	if withObs {
		// Metrics only — no span recorder: the benchmark wants the registry's
		// stage histograms without paying the sampling mutex on the Begin path.
		reg = obs.NewRegistry()
		cfg.Obs = &obs.Observer{Registry: reg}
	}
	var tcpFab *tcp.Fabric
	switch p.Transport {
	case "inproc":
		cfg.Transport = inproc.New(inproc.Options{MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay, Seed: p.Seed})
	case "tcp":
		tcpFab, err = tcp.NewFabric(sites, tcp.Options{})
		if err != nil {
			return result{}, err
		}
		tcpFab.RegisterMetrics(reg)
		cfg.Transport = tcpFab
	default:
		return result{}, fmt.Errorf("unknown transport %q (want inproc or tcp)", p.Transport)
	}

	if p.WAL != "mem" {
		if waldir == "" {
			dir, err := os.MkdirTemp("", "loadbench-wal-")
			if err != nil {
				return result{}, err
			}
			defer os.RemoveAll(dir)
			waldir = dir
		}
	}
	var logMu sync.Mutex
	logs := map[types.SiteID]wal.Log{}
	cfg.WAL = func(id types.SiteID) wal.Log {
		var l wal.Log
		var err error
		path := filepath.Join(waldir, fmt.Sprintf("%s-site%d.wal", sanitize(p.Label), id))
		switch p.WAL {
		case "mem":
			return nil
		case "file":
			l, err = wal.OpenFileLog(path)
		case "group":
			l, err = wal.OpenGroupLog(path)
		default:
			err = fmt.Errorf("unknown -wal %q (want mem, file or group)", p.WAL)
		}
		if err != nil {
			panic(fmt.Sprintf("loadbench: site%d wal: %v", id, err))
		}
		logMu.Lock()
		logs[id] = l
		logMu.Unlock()
		return l
	}

	mix := workload.Mix{WritesPerTxn: p.Writes, ZipfS: p.ZipfS, HotFraction: p.Hot}
	gen, err := workload.NewGenerator(asgn, mix, p.Seed)
	if err != nil {
		return result{}, err
	}

	cl := live.New(cfg)
	st := newStats()
	var genMu sync.Mutex
	next := func() workload.Txn {
		genMu.Lock()
		defer genMu.Unlock()
		return gen.Next()
	}
	waitDeadline := 10*p.TimeoutBase + 5*time.Second

	start := time.Now()
	stopAt := start.Add(p.Duration)
	oneTxn := func() {
		t := next()
		began := time.Now()
		id := cl.Begin(t.Coord, t.Writeset)
		o := cl.WaitOutcome(id, waitDeadline)
		st.record(o, time.Since(began), maxTxns)
	}
	var wg sync.WaitGroup
	if p.Rate <= 0 {
		for c := 0; c < p.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stopAt) && !st.done() {
					oneTxn()
				}
			}()
		}
	} else {
		interval := time.Duration(float64(time.Second) / p.Rate)
		ticker := time.NewTicker(interval)
		for time.Now().Before(stopAt) && !st.done() {
			<-ticker.C
			wg.Add(1)
			go func() {
				defer wg.Done()
				oneTxn()
			}()
		}
		ticker.Stop()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cl.Stop()

	r := result{params: p,
		DurationMs:    float64(p.Duration) / float64(time.Millisecond),
		TimeoutBaseMs: float64(p.TimeoutBase) / float64(time.Millisecond),
	}
	st.fill(&r, elapsed)
	for _, l := range logs {
		if fc, ok := l.(fsyncCounter); ok {
			r.WALFsyncs += fc.Fsyncs()
		}
		if c, ok := l.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	if tcpFab != nil {
		ws := tcpFab.WriteStats()
		r.WriteFrames, r.WriteBatches = ws.Frames, ws.Batches
	}
	scrapeObs(&r, reg)
	return r, nil
}

// scrapeObs folds the registry's per-site stage metrics into the result row:
// histograms merge across sites before taking quantiles, counters sum. Nil
// registry (-obs=false) leaves the stage fields zero, and omitempty drops
// them from the JSON.
func scrapeObs(r *result, reg *obs.Registry) {
	if reg == nil {
		return
	}
	snaps := reg.Snapshot()
	p99ms := func(base string) float64 {
		return obs.MergeHistograms(snaps, base).Quantile(0.99) / float64(time.Millisecond)
	}
	r.LockWaitP99Ms = p99ms("qcommit_lock_wait_ns")
	r.LockHoldP99Ms = p99ms("qcommit_lock_hold_ns")
	r.WALFlushWaitP99Ms = p99ms("qcommit_wal_flush_wait_ns")
	r.WALSyncP99Ms = p99ms("qcommit_wal_sync_ns")
	r.FlushReleaseP99Ms = p99ms("qcommit_flush_release_wait_ns")
	r.NetQueueP99Ms = p99ms("qcommit_net_enqueue_to_write_ns")
	batch := obs.MergeHistograms(snaps, "qcommit_wal_batch_records")
	r.WALBatchMean = batch.Mean()
	r.WALBatchP95 = batch.Quantile(0.95)
	r.NetShed = obs.SumCounters(snaps, "qcommit_net_shed_total")
	r.LockDeadlocks = obs.SumCounters(snaps, "qcommit_lock_deadlocks_total")
	r.LockWouldBlock = obs.SumCounters(snaps, "qcommit_lock_wouldblock_total")
	r.TermRounds = obs.SumCounters(snaps, "qcommit_term_rounds_total")
}

// stats accumulates completions.
type stats struct {
	mu         sync.Mutex
	latencies  []time.Duration // committed only
	committed  int
	aborted    int
	unresolved int
	stop       bool
}

func newStats() *stats { return &stats{} }

func (s *stats) record(o types.Outcome, d time.Duration, maxTxns int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch o {
	case types.OutcomeCommitted:
		s.committed++
		s.latencies = append(s.latencies, d)
	case types.OutcomeAborted:
		s.aborted++
	default:
		s.unresolved++
	}
	if maxTxns > 0 && s.committed+s.aborted >= maxTxns {
		s.stop = true
	}
}

func (s *stats) done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stop
}

func (s *stats) fill(r *result, elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.Committed, r.Aborted, r.Unresolved = s.committed, s.aborted, s.unresolved
	r.Completed = s.committed + s.aborted
	r.ElapsedSec = elapsed.Seconds()
	if r.ElapsedSec > 0 {
		r.TxnsPerSec = float64(r.Completed) / r.ElapsedSec
	}
	if r.Completed > 0 {
		r.AbortRate = float64(s.aborted) / float64(r.Completed)
	}
	if len(s.latencies) > 0 {
		sort.Slice(s.latencies, func(i, j int) bool { return s.latencies[i] < s.latencies[j] })
		pct := func(p float64) float64 {
			return float64(istats.PercentileNearestRank(s.latencies, p)) / float64(time.Millisecond)
		}
		r.P50Ms, r.P95Ms, r.P99Ms = pct(50), pct(95), pct(99)
	}
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
