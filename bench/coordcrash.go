package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"qcommit/internal/types"
	"qcommit/internal/wal"
	"qcommit/internal/workload"
)

// coordCrashSpec: inflight is the number of transactions put in doubt per
// fault cycle, warmup the number of unmeasured cycles.
var coordCrashSpec = liveSpec{
	sites: 5, items: uniformItems, mix: workload.Mix{WritesPerTxn: 1},
	T: 20 * time.Millisecond, warmup: 5, inflight: 8,
}

// settleDeadlineT bounds, in units of T, each wait for sites to agree; a
// transaction still unresolved then counts as failed.
const settleDeadlineT = 30

// cycleResult is what one fault cycle observed.
type cycleResult struct {
	wall       time.Duration
	latMs      []float64 // crash instant to all survivors agreeing, per in-doubt transaction
	recoveryMs float64   // Restart to the coordinator agreeing on all of them
	vacuous    int       // transactions already terminal at every survivor when the crash hit
	failed     int
	recs       []opRec
}

func terminal(o types.Outcome) bool { return o == types.OutcomeCommitted || o == types.OutcomeAborted }

// crashCycle is one serial fault cycle, driven by observed state throughout:
// begin the transactions at coord, crash coord the moment every one of them
// is known to some survivor (and before any is terminal everywhere), wait for
// the survivors to terminate them, restart coord, wait for it to agree.
func (lc *liveCluster) crashCycle(coord types.SiteID, g *workload.Generator) cycleResult {
	begun := time.Now()
	var res cycleResult
	used := map[types.ItemID]bool{}
	for len(res.recs) < lc.spec.inflight {
		t := g.Next()
		if used[t.Writeset[0].Item] {
			continue // disjoint items: the cycle measures termination, not lock conflicts
		}
		used[t.Writeset[0].Item] = true
		res.recs = append(res.recs, opRec{ws: t.Writeset})
	}
	for i := range res.recs { // back to back, so the transactions run in step
		res.recs[i].txn = lc.cl.Begin(coord, res.recs[i].ws)
	}

	// Watch one survivor's log: each time it forces a batch, look whether
	// every transaction is now known to some survivor. The first batch after a
	// quiet spell holds the cycle's yes-vote records, so the crash lands while
	// the votes are still on their way back.
	watched := lc.logs[lc.sites[int(coord)%len(lc.sites)]]
	giveUp := time.After(10 * lc.spec.T)
watch:
	for {
		known := 0
		for _, r := range res.recs {
			for _, id := range lc.sites {
				if id != coord && lc.cl.OutcomeAt(id, r.txn) != types.OutcomeUnknown {
					known++
					break
				}
			}
		}
		if known == len(res.recs) {
			break
		}
		grown := make(chan struct{})
		go func(t wal.Ticket) {
			_ = watched.WaitDurable(t) // returns when the log grows or is closed
			close(grown)
		}(watched.Durable() + 1)
		select {
		case <-grown:
		case <-giveUp:
			break watch
		}
	}

	inDoubt := make([]bool, len(res.recs))
	for i, r := range res.recs {
		for _, id := range lc.sites {
			if id != coord && !terminal(lc.cl.OutcomeAt(id, r.txn)) {
				inDoubt[i] = true
			}
		}
		if !inDoubt[i] {
			res.vacuous++
		}
	}
	crashed := time.Now()
	lc.cl.Crash(coord)
	for _, r := range res.recs {
		lc.tr.opBegin(r.txn, crashed)
	}

	deadline := settleDeadlineT * lc.spec.T
	survivors := make([]types.Outcome, len(res.recs))
	settle := func(from time.Time, skip func(i int) bool) []time.Duration {
		took := make([]time.Duration, len(res.recs))
		var wg sync.WaitGroup
		for i := range res.recs {
			if skip(i) {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res.recs[i].outcome = lc.cl.WaitOutcome(res.recs[i].txn, deadline)
				took[i] = time.Since(from)
				lc.tr.opEnd(res.recs[i].txn, from.Add(took[i]))
			}(i)
		}
		wg.Wait()
		return took
	}
	took := settle(crashed, func(int) bool { return false })
	bad := make([]bool, len(res.recs))
	for i, r := range res.recs {
		survivors[i] = r.outcome
		switch {
		case r.outcome == types.OutcomeUnknown:
			// It never left the coordinator: no survivor holds anything
			// to terminate.
			if inDoubt[i] {
				inDoubt[i] = false
				res.vacuous++
			}
		case !terminal(r.outcome):
			bad[i] = true
		case inDoubt[i]:
			res.latMs = append(res.latMs, float64(took[i])/float64(time.Millisecond))
		}
	}

	restarted := time.Now()
	lc.cl.Restart(coord)
	var slowest time.Duration
	// A transaction no survivor ever heard of has nothing to agree on.
	for i, d := range settle(restarted, func(i int) bool { return survivors[i] == types.OutcomeUnknown }) {
		if r := res.recs[i]; r.outcome != survivors[i] || lc.cl.Violated(r.txn) {
			bad[i] = true
		}
		slowest = max(slowest, d)
	}
	res.recoveryMs = float64(slowest) / float64(time.Millisecond)
	lc.quiesce(deadline)
	for i, b := range bad {
		if !b {
			continue
		}
		res.failed++
		r := res.recs[i]
		fmt.Fprintf(os.Stderr, "coordcrash: txn %d (coordinator %d) failed: survivors settled %v, after restart %v, violated %v, per site",
			r.txn, coord, survivors[i], r.outcome, lc.cl.Violated(r.txn))
		for _, id := range lc.sites {
			fmt.Fprintf(os.Stderr, " %d=%v", id, lc.cl.OutcomeAt(id, r.txn))
		}
		fmt.Fprintln(os.Stderr)
	}
	res.wall = time.Since(begun)
	return res
}

// quiesce waits until the fabric has written no frame for a millisecond. A
// restarted site asks every peer for every item it holds (anti-entropy); left
// to run into the next cycle, that burst delays some of the cycle's
// transactions by milliseconds, the first ones finish before the last are
// known anywhere, and the crash finds nothing in doubt.
func (lc *liveCluster) quiesce(limit time.Duration) {
	giveUp := time.Now().Add(limit)
	last, idle := lc.fab.WriteStats().Frames, 0
	for idle < 2 && time.Now().Before(giveUp) {
		time.Sleep(500 * time.Microsecond)
		if now := lc.fab.WriteStats().Frames; now == last {
			idle++
		} else {
			last, idle = now, 0
		}
	}
}

// crashRun is a measured sequence of fault cycles.
type crashRun struct {
	cycles     int
	txns       int
	aborted    int
	vacuous    int
	failed     int
	win        window // seconds is the sum of the cycles' wall times
	recoveryMs []float64
	recs       []opRec
}

// runCycles runs fault cycles, coordinators round-robin, for the asked-for
// seconds (or exactly n cycles when n > 0).
func (lc *liveCluster) runCycles(seed int64, seconds float64, n int) (crashRun, error) {
	g, err := lc.generator(seed)
	if err != nil {
		return crashRun{}, err
	}
	var run crashRun
	for {
		if (n > 0 && run.cycles == n) || (n == 0 && run.win.seconds >= seconds) {
			return run, nil
		}
		cy := lc.crashCycle(lc.sites[run.cycles%len(lc.sites)], g)
		run.win.seconds += cy.wall.Seconds()
		run.win.latMs = append(run.win.latMs, cy.latMs...)
		run.cycles++
		run.txns += len(cy.recs)
		run.vacuous += cy.vacuous
		run.failed += cy.failed
		run.recoveryMs = append(run.recoveryMs, cy.recoveryMs)
		run.recs = append(run.recs, cy.recs...)
		for _, r := range cy.recs {
			if r.outcome == types.OutcomeAborted {
				run.aborted++
			}
		}
	}
}

// setUpCoordCrash sets up the crash workload; its warm-up is a fixed number
// of unmeasured fault cycles.
func setUpCoordCrash(seed int64, tr *tracer, reps int, res *result) (*liveCluster, error) {
	return setUpLive(coordCrashSpec, seed, tr, reps, res, func(lc *liveCluster) error {
		warm, err := lc.runCycles(seed+7919, 0, coordCrashSpec.warmup)
		if err == nil && warm.failed > 0 {
			err = fmt.Errorf("%d warm-up transactions did not terminate", warm.failed)
		}
		return err
	})
}

// fillCrash copies a measured cycle sequence into the result. An operation is
// one in-doubt transaction; it succeeds when every survivor reports the same
// terminal outcome and the restarted coordinator then agrees. Vacuous
// transactions (nothing left in doubt when the crash hit) are attempted but
// neither succeed nor fail: they show as coordcrash.vacuous_share.
func (r *result) fillCrash(run crashRun, lc *liveCluster) {
	r.attempted = run.txns
	r.failed = run.failed + lc.verify(run.recs, false)
	r.aborted = run.aborted
	r.succeeded = len(run.win.latMs)
	r.measured(run.win)
	r.notes["cycles"] = run.cycles
}

func runCoordCrash(c runCtx) (*result, error) {
	res := newResult()
	if !c.trace {
		lc, err := setUpCoordCrash(c.seed, nil, setupReps, res)
		if err != nil {
			return nil, err
		}
		defer lc.close()
		run, err := lc.runCycles(c.seed, c.seconds, 0)
		if err != nil {
			return nil, err
		}
		res.fillCrash(run, lc)
		return res, nil
	}

	lc0, err := setUpCoordCrash(c.seed, nil, 1, res)
	if err != nil {
		return nil, err
	}
	base, err := lc0.runCycles(c.seed, c.seconds/3, 0)
	lc0.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	lc, err := setUpCoordCrash(c.seed, tr, 1, res)
	if err != nil {
		return nil, err
	}
	defer lc.close()
	tr.reset()
	before := lc.counters()
	run, err := lc.runCycles(c.seed, c.seconds*2/3, 0)
	if err != nil {
		return nil, err
	}
	after := lc.counters()
	res.fillCrash(run, lc)

	l := res.layer
	done := float64(len(run.win.latMs))
	l["client.latency_p95_ms"] = percentile(run.win.latMs, 95)
	l["client.latency_p99_ms"] = percentile(run.win.latMs, 99)
	l["transport.msgs_per_commit"] = ratio(float64(after.sends-before.sends), done)
	l["transport.shed_total"] = float64(after.shed - before.shed)
	l["transport.frames_per_batch"] = ratio(float64(after.frames-before.frames), float64(after.batches-before.batches))
	l["wal.appends_per_commit"] = ratio(float64(after.appends-before.appends), done)
	l["wal.fsyncs_per_commit"] = ratio(float64(after.fsyncs-before.fsyncs), done)
	l["protocol.term_rounds_per_fault"] = ratio(counterDelta(before.snaps, after.snaps, "qcommit_term_rounds_total"), float64(run.cycles))
	l["coordcrash.termination_in_T"] = ratio(percentile(run.win.latMs, 50), float64(coordCrashSpec.T)/float64(time.Millisecond))
	l["coordcrash.recovery_p50_ms"] = percentile(run.recoveryMs, 50)
	l["coordcrash.vacuous_share"] = ratio(float64(run.vacuous), float64(run.txns))
	l["trace.overhead_ratio"] = ratio(run.win.goodput(), base.win.goodput())
	if c.out != nil {
		c.out.Spans, _, _ = tr.snapshot()
	}
	return res, nil
}
