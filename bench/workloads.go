package main

import (
	"fmt"
	"time"

	"qcommit/internal/workload"
)

// runCtx is what one invocation asks of a workload.
type runCtx struct {
	seed    int64
	seconds float64 // length of the measured window
	trace   bool    // the separate traced run that yields the per-layer numbers
	out     *traceDoc
}

// result is what one workload run measured. End-to-end figures come only
// from untraced runs, per-layer figures only from traced ones.
type result struct {
	setups    []float64 // seconds, one per set-up repetition
	attempted int
	succeeded int
	aborted   int
	failed    int
	goodput   float64 // successes per wall second over the window
	p50       float64 // ms, the median over every success
	win       window  // the window itself, for the account on standard error
	layer     map[string]float64
	notes     map[string]any // recorded conditions: GOMAXPROCS, wal_dir_fs, T, ...
}

// workloadDef names one workload, says why it exists, and runs it.
type workloadDef struct {
	name string
	why  string
	run  func(runCtx) (*result, error)
}

// setupReps is how many times a run sets up, tearing the earlier ones down;
// setup_s is the median.
const setupReps = 3

const uniformItems = 4096

var steadyUniform = liveSpec{
	sites: 3, items: uniformItems, mix: workload.Mix{WritesPerTxn: 1},
	T: 200 * time.Millisecond, warmup: 8000, rate: 1000, inflight: 8,
}

var saturateUniform = liveSpec{
	sites: 3, items: uniformItems, mix: workload.Mix{WritesPerTxn: 1},
	T: 200 * time.Millisecond, warmup: 10000, inflight: 16,
}

var hotkeyContended = liveSpec{
	sites: 3, items: 256, mix: workload.Mix{WritesPerTxn: 2, ZipfS: 1.2},
	T: 200 * time.Millisecond, warmup: 20000, inflight: 8,
}

// workloads is the benchmark's fixed set, in the order BENCHMARK.json lists
// them. The one-line reasons are repeated there and in README.md.
var workloads = []workloadDef{
	{
		name: "steady_uniform",
		why:  "open loop at 1000 txn/s, far below the knee: batches are ~1 record and locks never conflict, so commit latency shows per-message and per-append cost",
		run:  func(c runCtx) (*result, error) { return runLive(steadyUniform, c) },
	},
	{
		name: "saturate_uniform",
		why:  "same data, closed loop with 16 in flight: peak committed goodput, where mailbox queues, group commit and writev coalescing do the work",
		run:  func(c runCtx) (*result, error) { return runLive(saturateUniform, c) },
	},
	{
		name: "hotkey_contended",
		why:  "closed loop with 8 in flight on 256 items, zipf 1.2, 2 writes: lockmgr try-lock-and-abort dominates; goodput counts commits only",
		run:  func(c runCtx) (*result, error) { return runLive(hotkeyContended, c) },
	},
	{
		name: "coordcrash_term",
		why:  "the paper's subject: 5 sites, crash the coordinator with 8 transactions in doubt, time until every survivor agrees; timer-driven, so CPU work must not move it",
		run:  runCoordCrash,
	},
	{
		name: "sim_churn",
		why:  "the researcher-facing path: hybrid churn study, 32 sites x 512 items under failures, single-threaded and deterministic; no live-runtime change may move it",
		run:  runSimChurn,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
