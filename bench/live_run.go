package main

import (
	"fmt"
	"runtime"
	"time"

	"qcommit/internal/obs"
	"qcommit/internal/types"
)

// setUpLive builds a cluster and warms it up reps times, closing all but the
// last, and records each repetition's duration: everything from nothing to
// the first measured operation.
func setUpLive(spec liveSpec, seed int64, tr *tracer, reps int, res *result, warmUp func(*liveCluster) error) (*liveCluster, error) {
	var lc *liveCluster
	for i := 0; i < reps; i++ {
		if lc != nil {
			lc.close()
		}
		t0 := time.Now()
		var err error
		if lc, err = newLiveCluster(spec, seed, tr); err != nil {
			return nil, err
		}
		if err := warmUp(lc); err != nil {
			lc.close()
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	res.notes["wal_dir_fs"] = lc.walFS
	res.notes["timeout_base_ms"] = float64(spec.T) / float64(time.Millisecond)
	return lc, nil
}

// setUpLoad sets up a workload whose warm-up is the probe transaction and the
// fixed count of closed-loop operations.
func setUpLoad(spec liveSpec, seed int64, tr *tracer, reps int, res *result) (*liveCluster, error) {
	return setUpLive(spec, seed, tr, reps, res, func(lc *liveCluster) error { return lc.warmUp(seed) })
}

// measure runs the workload's load shape for a window of the given length
// and tallies it.
func (lc *liveCluster) measure(seed int64, seconds float64) ([]opRec, tally, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var recs []opRec
	var err error
	if lc.spec.rate > 0 {
		recs, err = lc.openLoop(seed, start, deadline)
	} else {
		recs, err = lc.closedLoop(lc.spec.inflight, seed, func() bool { return time.Now().Before(deadline) })
	}
	return recs, tallyOps(recs, start), err
}

// runLive is the untraced run of a live workload: the end-to-end numbers.
func runLive(spec liveSpec, c runCtx) (*result, error) {
	if c.trace {
		return runLiveTraced(spec, c)
	}
	res := newResult()
	lc, err := setUpLoad(spec, c.seed, nil, setupReps, res)
	if err != nil {
		return nil, err
	}
	defer lc.close()
	recs, t, err := lc.measure(c.seed, c.seconds)
	if err != nil {
		return nil, err
	}
	res.fill(t)
	res.failed += lc.verify(recs, true)
	return res, nil
}

// counters is a reading of every count the layers expose, taken before and
// after the traced window so warm-up traffic is excluded.
type counters struct {
	sends, appends, fsyncs uint64
	frames, batches, shed  uint64
	walBytes               int64
	snaps                  []obs.MetricSnapshot
}

func (lc *liveCluster) counters() counters {
	c := counters{sends: lc.tr.sends.Load(), appends: lc.tr.appends.Load(), walBytes: lc.walBytes(), snaps: lc.tr.reg.Snapshot()}
	for _, gl := range lc.logs {
		c.fsyncs += gl.Fsyncs()
	}
	ws := lc.fab.WriteStats()
	c.frames, c.batches, c.shed = ws.Frames, ws.Batches, ws.Shed
	return c
}

// histMeanUS is the mean, in microseconds, of the observations a registry
// histogram (all sites and shards merged) took between two snapshots. The
// registry's quantiles are power-of-two bucket edges, which a change smaller
// than 2x cannot move; the mean is exact.
func histMeanUS(before, after []obs.MetricSnapshot, base string) float64 {
	b, a := obs.MergeHistograms(before, base), obs.MergeHistograms(after, base)
	if a.Count <= b.Count {
		return 0
	}
	return (a.Sum - b.Sum) / float64(a.Count-b.Count) / 1e3
}

func counterDelta(before, after []obs.MetricSnapshot, base string) float64 {
	return float64(obs.SumCounters(after, base) - obs.SumCounters(before, base))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runLiveTraced is the separate traced run of a live workload. It first
// measures an untraced window a third as long, only to state the tracing
// overhead, then runs the rest of the time with the obs registry, the span
// recorder and the benchmark's transport and WAL wrappers installed.
func runLiveTraced(spec liveSpec, c runCtx) (*result, error) {
	res := newResult()
	baseSec, tracedSec := c.seconds/3, c.seconds*2/3

	lc0, err := setUpLoad(spec, c.seed, nil, 1, res)
	if err != nil {
		return nil, err
	}
	_, base, err := lc0.measure(c.seed, baseSec)
	lc0.close()
	if err != nil {
		return nil, err
	}
	untraced := base.win.goodput()

	tr := newTracer()
	lc, err := setUpLoad(spec, c.seed, tr, 1, res)
	if err != nil {
		return nil, err
	}
	defer lc.close()
	tr.reset()
	stop := make(chan struct{})
	peak := gaugeMax(tr.reg, mailboxGauges(lc.sites), stop)
	before := lc.counters()
	recs, t, err := lc.measure(c.seed, tracedSec)
	close(stop)
	if err != nil {
		return nil, err
	}
	after := lc.counters()
	res.fill(t)
	res.failed += lc.verify(recs, true)

	committed := map[uint64]bool{}
	for _, r := range recs {
		if r.outcome == types.OutcomeCommitted {
			committed[uint64(r.txn)] = true
		}
	}
	spans, captured, bytesPerMsg := tr.snapshot()
	b := budgetOf(spans, func(txn uint64) bool { return committed[txn] })
	commits := float64(t.succeeded)
	msgsPerCommit := ratio(float64(after.sends-before.sends), commits)

	l := res.layer
	l["client.latency_p95_ms"] = percentile(t.win.latMs, 95)
	l["client.latency_p99_ms"] = percentile(t.win.latMs, 99)
	l["loadgen.lag_p99_ms"] = percentile(t.lagMs, 99)
	l["live.commit_mean_us"] = histMeanUS(before.snaps, after.snaps, "qcommit_commit_ns")
	l["live.flush_release_wait_mean_us"] = histMeanUS(before.snaps, after.snaps, "qcommit_flush_release_wait_ns")
	l["live.mailbox_depth_max"] = float64(<-peak)
	l["live.unattributed_p50_us"] = percentile(b.unattributed, 50)
	l["trace.op_p50_us"] = percentile(b.op, 50)
	l["trace.wal_share"] = ratio(mean(b.wal), mean(b.op))
	l["trace.transport_share"] = ratio(mean(b.transport), mean(b.op))
	l["trace.unattributed_share"] = ratio(mean(b.unattributed), mean(b.op))
	l["transport.msgs_per_commit"] = msgsPerCommit
	l["transport.bytes_per_commit"] = msgsPerCommit * bytesPerMsg
	l["transport.send_call_p50_us"] = percentile(durations(spans, "transport.send"), 50)
	l["transport.hop_p50_us"] = percentile(durations(spans, "transport.hop"), 50)
	l["transport.frames_per_batch"] = ratio(float64(after.frames-before.frames), float64(after.batches-before.batches))
	l["transport.shed_total"] = float64(after.shed - before.shed)
	l["wal.appends_per_commit"] = ratio(float64(after.appends-before.appends), commits)
	l["wal.fsyncs_per_commit"] = ratio(float64(after.fsyncs-before.fsyncs), commits)
	l["wal.batch_mean"] = ratio(float64(after.appends-before.appends), float64(after.fsyncs-before.fsyncs))
	l["wal.append_call_p50_us"] = percentile(durations(spans, "wal.append"), 50)
	l["wal.durable_wait_p50_us"] = percentile(durations(spans, "wal.durable"), 50)
	l["wal.bytes_per_commit"] = ratio(float64(after.walBytes-before.walBytes), commits)
	l["lockmgr.abort_ratio"] = ratio(float64(t.aborted), float64(t.attempted))
	l["lockmgr.attempts_per_commit"] = ratio(float64(t.attempted), commits)
	l["lockmgr.wouldblock_per_commit"] = ratio(counterDelta(before.snaps, after.snaps, "qcommit_lock_wouldblock_total"), commits)
	l["lockmgr.deadlocks_total"] = counterDelta(before.snaps, after.snaps, "qcommit_lock_deadlocks_total")
	l["lockmgr.wait_mean_us"] = histMeanUS(before.snaps, after.snaps, "qcommit_lock_wait_ns")
	l["lockmgr.hold_mean_us"] = histMeanUS(before.snaps, after.snaps, "qcommit_lock_hold_ns")
	l["trace.overhead_ratio"] = ratio(t.win.goodput(), untraced)

	if err := probeMsg(captured, l); err != nil {
		return nil, err
	}
	probeLocks(recs, l)
	if err := probeStep(lc.asgn, lc.sites, recs[0].ws, l); err != nil {
		return nil, err
	}
	if c.out != nil {
		c.out.Spans = spans
	}
	res.notes["span_sample_every"] = spanSampleEvery
	res.notes["traced_ops_budgeted"] = len(b.op)
	return res, nil
}

func newResult() *result {
	return &result{
		layer: map[string]float64{},
		notes: map[string]any{"gomaxprocs": runtime.GOMAXPROCS(0)},
	}
}

// fill copies a tally's counts and end-to-end figures into the result.
func (r *result) fill(t tally) {
	r.attempted, r.succeeded, r.aborted, r.failed = t.attempted, t.succeeded, t.aborted, t.failed
	r.measured(t.win)
}

// measured copies a window's end-to-end figures into the result.
func (r *result) measured(w window) {
	r.goodput, r.p50, r.win = w.goodput(), percentile(w.latMs, 50), w
}

// check reports why a result must not be trusted, or nil.
func (r *result) check() error {
	switch {
	case r.failed > 0:
		return fmt.Errorf("%d of %d operations failed", r.failed, r.attempted)
	case r.attempted < 1 || r.succeeded < 1:
		return fmt.Errorf("no operation succeeded (%d attempted)", r.attempted)
	}
	return nil
}
