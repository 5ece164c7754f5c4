// Command bench is the repository's benchmark: five named workloads over the
// live runtime and the simulators, three end-to-end metrics each, and a
// separate traced run that attributes them to layers from outside. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh --workload saturate_uniform --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload steady_uniform --seed 1 --seconds 15 --trace 1 --trace-out .bench_build/out.json
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --aa 10
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics by name with value and unit — the end-to-end ones
// with --trace 0, the per-layer ones with --trace 1. Everything else goes to
// standard error. The exit code is non-zero when an operation failed or an
// output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// runSeconds is the measured window BENCHMARK.json asks for.
const runSeconds = 15

// metricDef names one reported metric. Which way is better and, for the
// end-to-end ones, the regression bound are BENCHMARK.json's to say; a test
// holds these names and units to that file.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics, printed by the untraced run of every
// workload.
var endToEnd = []metricDef{
	{"goodput_tps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer are the metrics of the traced run. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"client.latency_p95_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"live.commit_mean_us", "us"},
	{"live.flush_release_wait_mean_us", "us"},
	{"live.mailbox_depth_max", "count"},
	{"live.unattributed_p50_us", "us"},
	{"trace.op_p50_us", "us"},
	{"trace.wal_share", "ratio"},
	{"trace.transport_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"transport.msgs_per_commit", "count"},
	{"transport.bytes_per_commit", "B"},
	{"transport.send_call_p50_us", "us"},
	{"transport.hop_p50_us", "us"},
	{"transport.frames_per_batch", "count"},
	{"transport.shed_total", "count"},
	{"msg.marshal_ns", "ns"},
	{"msg.unmarshal_ns", "ns"},
	{"msg.bytes_per_msg", "B"},
	{"msg.allocs_per_roundtrip", "count"},
	{"wal.appends_per_commit", "count"},
	{"wal.fsyncs_per_commit", "count"},
	{"wal.batch_mean", "count"},
	{"wal.append_call_p50_us", "us"},
	{"wal.durable_wait_p50_us", "us"},
	{"wal.bytes_per_commit", "B"},
	{"lockmgr.abort_ratio", "ratio"},
	{"lockmgr.attempts_per_commit", "count"},
	{"lockmgr.wouldblock_per_commit", "count"},
	{"lockmgr.deadlocks_total", "count"},
	{"lockmgr.wait_mean_us", "us"},
	{"lockmgr.hold_mean_us", "us"},
	{"lockmgr.acquire_release_ns", "ns"},
	{"protocol.step_ns", "ns"},
	{"protocol.term_rounds_per_fault", "count"},
	{"coordcrash.termination_in_T", "T"},
	{"coordcrash.recovery_p50_ms", "ms"},
	{"coordcrash.vacuous_share", "ratio"},
	{"churn.hybrid_speedup", "ratio"},
	{"engine.replay_runs_per_s", "1/s"},
	{"sim.events_per_s", "1/s"},
	{"quorumcalc.decide_ns", "ns"},
}

// metricValue is one entry of the printed metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the object printed as the last line of standard output.
type report struct {
	Workload  string                 `json:"workload,omitempty"` // only with --workload all
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// traceDoc is what --trace-out writes: the spans the wrappers recorded and
// the per-layer table derived from them and from the layers' own counters.
type traceDoc struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Notes    map[string]any         `json:"notes"`
	PerLayer map[string]metricValue `json:"per_layer"`
	Spans    []span                 `json:"spans"`
}

func (r *result) metrics(trace bool) map[string]metricValue {
	out := map[string]metricValue{}
	if trace {
		for _, d := range perLayer {
			out[d.name] = metricValue{r.layer[d.name], d.unit}
		}
		return out
	}
	values := map[string]float64{
		"goodput_tps": r.goodput, "latency_p50_ms": r.p50, "setup_s": median(r.setups),
	}
	for _, d := range endToEnd {
		out[d.name] = metricValue{values[d.name], d.unit}
	}
	return out
}

// describe prints the human-readable account of a run to standard error.
func (r *result) describe(w workloadDef, c runCtx) {
	fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%g trace=%v\n", w.name, c.seed, c.seconds, c.trace)
	fmt.Fprintf(os.Stderr, "  ops_attempted=%d ops_succeeded=%d ops_aborted=%d ops_failed=%d\n",
		r.attempted, r.succeeded, r.aborted, r.failed)
	fmt.Fprintf(os.Stderr, "  setup_s repetitions=%v\n", r.setups)
	fmt.Fprintf(os.Stderr, "  window_s=%.4f samples=%d latency_p95_ms=%.4f latency_p99_ms=%.4f\n",
		r.win.seconds, len(r.win.latMs), percentile(r.win.latMs, 95), percentile(r.win.latMs, 99))
	keys := make([]string, 0, len(r.notes))
	for k := range r.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %s=%v\n", k, r.notes[k])
	}
	m := r.metrics(c.trace)
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// runOne runs a workload and returns its report; the error is set when the
// run could not be completed or its result must not be trusted.
func runOne(w workloadDef, c runCtx, traceOut string) (report, error) {
	if c.trace && traceOut != "" {
		c.out = &traceDoc{Workload: w.name, Seed: c.seed}
	}
	cpu := readCPU()
	res, err := w.run(c)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", w.name, err)
	}
	stolen := stolenSince(cpu)
	res.notes["cpu_stolen_share"] = stolen
	if stolen > stolenLimit {
		fmt.Fprintf(os.Stderr, "bench: the host took %.1f%% of the CPU time away during this run; its numbers do not compare\n", 100*stolen)
	}
	res.describe(w, c)
	bad := res.check()
	rep := report{Correct: bad == nil, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics(c.trace)}
	if c.out != nil {
		c.out.Notes, c.out.PerLayer = res.notes, rep.Metrics
		data, err := json.Marshal(c.out)
		if err == nil {
			err = os.WriteFile(traceOut, data, 0o644)
		}
		if err != nil {
			return rep, fmt.Errorf("%s: writing %s: %w", w.name, traceOut, err)
		}
	}
	if bad != nil {
		return rep, fmt.Errorf("%s: %w", w.name, bad)
	}
	return rep, nil
}

func main() {
	workloadF := flag.String("workload", "all", "workload to run, or 'all'")
	seedF := flag.Int64("seed", 1, "seed for the workload's inputs")
	secondsF := flag.Float64("seconds", runSeconds, "length of the measured window in seconds")
	traceF := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics instead of the end-to-end ones")
	traceOutF := flag.String("trace-out", "", "with --trace 1, also write the recorded spans and the per-layer table to this file")
	aaF := flag.Int("aa", 0, "run every workload this many times (a seed each) and judge the run-to-run spread against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *secondsF <= 0 || (*traceF != 0 && *traceF != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	// One setting for every run, recorded with each result: the driver's box
	// and a developer's differ in cores, and the comparison must not.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *aaF > 0 {
		os.Exit(runAA(*aaF, *seedF, *secondsF))
	}
	c := runCtx{seed: *seedF, seconds: *secondsF, trace: *traceF == 1}
	enc := json.NewEncoder(os.Stdout)
	if *workloadF != "all" {
		w, err := findWorkload(*workloadF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		rep, err := runOne(w, c, *traceOutF)
		if rep.Metrics != nil {
			enc.Encode(rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	code := 0
	for _, w := range workloads {
		rep, err := runOne(w, c, "")
		if rep.Metrics != nil {
			rep.Workload = w.name
			enc.Encode(rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	os.Exit(code)
}
