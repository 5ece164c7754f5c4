package churn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"qcommit/internal/core"
	"qcommit/internal/engine"
	"qcommit/internal/sim"
	"qcommit/internal/simnet"
	"qcommit/internal/types"
)

// StandardBuilders returns the five standard protocol columns: 2PC, 3PC,
// Skeen's quorum protocol with per-transaction majority site-vote quorums,
// and the paper's protocols 1 and 2.
func StandardBuilders() []core.Spec { return core.Standard(nil) }

// runStats is one (run, protocol) evaluation before aggregation.
type runStats struct {
	counts     Counts
	violations int
	latencies  []sim.Duration
	// analytic is how many submissions the hybrid engine decided without
	// simulation (always zero for replay); it exists so tests can pin that
	// the analytic path carries real coverage.
	analytic int
}

// stepsPerArrival budgets scheduler events per transaction (ordinary
// terminations take hundreds; repeated termination rounds under churn take
// more). The budget exists to turn a livelocked protocol into an error
// instead of an endless spin.
const stepsPerArrival = 100_000

// kickGraceT is how old (in units of the timeout base T) a still-undecided
// transaction must be before a repair event re-kicks its termination. The
// commit protocol's own windows span ~4T (a 2T vote phase plus a 2T ack
// phase), so by 6T an undecided transaction is genuinely stalled.
const kickGraceT = 6

// executeRun replays one script under one protocol: schedule the fault
// timeline, the transaction stream and the post-repair kicks, run the
// simulator to the horizon, then read every transaction's fate out of the
// cluster.
func executeRun(sc *script, params Params, seed int64, spec core.Spec) (runStats, error) {
	// ExtraSites keeps copy-less sites in the cluster: random placement may
	// leave a site with no replicas, but the timeline still crashes and
	// restarts it. Delays come from the per-message hash model so the hybrid
	// engine's fallback world — which simulates only a subset of the traffic
	// — sees the same delay on every message it shares with this full replay.
	cl := engine.New(engine.Config{Seed: seed, Net: simnet.Config{DelayFn: delayModel(seed)}, Assignment: sc.asgn, Strategy: params.Strategy, Spec: spec, ExtraSites: sc.sites})
	cl.Recorder().Disable()
	sched := cl.Scheduler()
	sched.MaxSteps = 4_000_000 + uint64(len(sc.arrivals))*stepsPerArrival
	horizon := sim.Time(params.Horizon)

	for _, ev := range sc.events {
		switch ev.Kind {
		case EventCrash:
			cl.CrashAt(ev.At, ev.Site)
		case EventRestart:
			cl.RestartAt(ev.At, ev.Site)
		case EventPartition:
			cl.PartitionAt(ev.At, ev.Groups...)
		case EventHeal:
			cl.HealAt(ev.At)
		}
	}

	// Submissions. At fire time the preferred coordinator may be down; the
	// client then retries the lowest-numbered live replica of its data, and
	// gives up (Rejected) only when every participant is down. txnOf[i] == 0
	// means arrival i was rejected.
	//
	// Each arrival also samples data-access availability from the client's
	// preferred coordinator: one read probe and one write probe per written
	// item, before the submission mutates lock state. The probes see the
	// strategy — optimistic read-one versus quorum reads — so the
	// per-strategy columns quantify when adaptive voting wins (rare
	// failures) and when it loses (items stuck in pessimistic mode with
	// stale copies excluded).
	var access struct{ checks, read, write int }
	txnOf := make([]types.TxnID, len(sc.arrivals))
	for i, a := range sc.arrivals {
		i, a := i, a
		sched.At(a.At, func() {
			for _, u := range a.Writeset {
				access.checks++
				if cl.CanRead(a.Coord, u.Item) {
					access.read++
				}
				if cl.CanWrite(a.Coord, u.Item) {
					access.write++
				}
			}
			coord := a.Coord
			if cl.Network().Down(coord) {
				coord = 0
				for _, p := range a.Participants {
					if !cl.Network().Down(p) {
						coord = p
						break
					}
				}
			}
			if coord == 0 {
				return
			}
			txnOf[i] = cl.Begin(coord, a.Writeset)
		})
	}

	// After every repair event, re-kick stalled transactions: Kick resets
	// the termination-round budget and starts a fresh election, so progress
	// made possible by the repair is actually attempted. Only transactions
	// past the kick grace are touched — a younger transaction's commit
	// protocol is still running, and forcing termination under it would
	// race the live coordinator (the engine's patience timers embody the
	// same discipline). These callbacks are scheduled after the timeline's,
	// so at equal times the repair itself runs first. Kick skips terminated
	// transactions itself.
	grace := sim.Duration(kickGraceT) * cl.T()
	for _, ri := range sc.repairs {
		at := sc.events[ri].At
		sched.At(at, func() {
			now := sched.Now()
			for i, txn := range txnOf {
				if txn != 0 && sc.arrivals[i].At.Add(grace) <= now {
					cl.Kick(txn)
				}
			}
		})
	}

	sched.RunUntil(horizon)
	if sched.MaxSteps != 0 && sched.Steps() >= sched.MaxSteps {
		return runStats{}, fmt.Errorf("churn: %s run (seed %d) exhausted %d scheduler steps before the horizon", spec.Name(), seed, sched.MaxSteps)
	}

	var st runStats
	st.counts.Arrivals = len(sc.arrivals)
	st.counts.SiteDownNS = sc.siteDownNS
	st.counts.PartitionedNS = sc.partitionedNS
	st.counts.AccessChecks = access.checks
	st.counts.ReadAvailable = access.read
	st.counts.WriteAvailable = access.write
	st.counts.ModeDemotions, st.counts.ModeRestorations = cl.Tracker().ModeTransitions()
	st.counts.VoteReassignments, st.counts.VoteRestorations = cl.Tracker().VoteTransitions()
	all := cl.Sites()
	for i, a := range sc.arrivals {
		txn := txnOf[i]
		if txn == 0 {
			st.counts.Rejected++
			continue
		}
		st.counts.Submitted++
		st.counts.PostSubmitNS += int64(horizon - a.At)
		if decidedAt, ok := cl.FirstDecisionAt(txn); ok {
			lat := sim.Duration(decidedAt - a.At)
			st.counts.PendingNS += int64(lat)
			st.latencies = append(st.latencies, lat)
			switch cl.GroupOutcome(txn, all) {
			case types.OutcomeCommitted:
				st.counts.Committed++
			default:
				st.counts.Aborted++
			}
			continue
		}
		st.counts.PendingNS += int64(horizon - a.At)
		if cl.GroupOutcome(txn, all) == types.OutcomeBlocked {
			st.counts.Blocked++
		} else {
			st.counts.Unresolved++
		}
	}
	st.violations = len(cl.Violations()) + len(cl.CheckStores())
	return st, nil
}

// accumulateRun draws run r's script (seeded seed+r) and evaluates it under
// every spec, adding the tallies into results. Runs are independently
// seeded and aggregation is pure addition plus latency concatenation in run
// order, so evaluating the run set in any chunking produces identical
// results.
func accumulateRun(params Params, seed int64, r int, specs []core.Spec, results []Result) error {
	sc, err := generateScript(params, seed+int64(r))
	if err != nil {
		return err
	}
	exec := executeRun
	if params.Engine == EngineHybrid {
		exec = executeRunHybrid
	}
	for i, spec := range specs {
		st, err := exec(sc, params, seed+int64(r), spec)
		if err != nil {
			return err
		}
		results[i].Runs++
		results[i].Counts.Add(st.counts)
		results[i].Violations += st.violations
		results[i].Latencies = append(results[i].Latencies, st.latencies...)
	}
	return nil
}

func newResults(specs []core.Spec) []Result {
	results := make([]Result, len(specs))
	for i, spec := range specs {
		results[i].Label = spec.Name()
	}
	return results
}

// Study evaluates runs independent churn runs under every spec and
// aggregates, one Result per spec labelled with its Name. All specs see
// identical worlds. This serial path is the determinism oracle for
// StudyParallel.
func Study(params Params, runs int, seed int64, specs []core.Spec) ([]Result, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	results := newResults(specs)
	for r := 0; r < runs; r++ {
		if err := accumulateRun(params, seed, r, specs, results); err != nil {
			return nil, err
		}
	}
	sortLatencies(results)
	return results, nil
}

// Options tunes StudyParallel.
type Options struct {
	// Workers is the number of goroutines evaluating runs. Zero or negative
	// means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, if non-nil, is called as runs complete with the number
	// finished so far and the total. Calls are serialized and done is
	// nondecreasing.
	Progress func(done, total int)
}

// StudyParallel is the worker-pool version of Study: runs fan out across
// opts.Workers goroutines (one run per claim — a run is already a 5-protocol
// simulation batch) and per-run accumulators merge in ascending run order.
// Results are bit-for-bit identical to the serial Study for any worker
// count.
func StudyParallel(params Params, runs int, seed int64, specs []core.Spec, opts Options) ([]Result, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	if workers <= 1 {
		// One worker is exactly the serial path; skip the pool machinery.
		results := newResults(specs)
		for r := 0; r < runs; r++ {
			if err := accumulateRun(params, seed, r, specs, results); err != nil {
				return nil, err
			}
			if opts.Progress != nil {
				opts.Progress(r+1, runs)
			}
		}
		sortLatencies(results)
		return results, nil
	}

	// Workers claim run indices from an atomic counter; each run accumulates
	// into its own slot so the merge below proceeds in run order regardless
	// of completion order.
	perRun := make([][]Result, runs)
	errs := make([]error, runs)
	var next atomic.Int64
	var failed atomic.Bool
	var progressMu sync.Mutex // guards done and serializes Progress calls
	done := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1)) - 1
				if r >= runs || failed.Load() {
					return
				}
				acc := newResults(specs)
				if err := accumulateRun(params, seed, r, specs, acc); err != nil {
					errs[r] = err
					failed.Store(true)
					return
				}
				perRun[r] = acc
				if opts.Progress != nil {
					progressMu.Lock()
					done++
					opts.Progress(done, runs)
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// Deterministic merge by run index. On failure, report the error of the
	// lowest failing run, as the serial path would have.
	results := newResults(specs)
	for r := 0; r < runs; r++ {
		if errs[r] != nil {
			return nil, errs[r]
		}
		if perRun[r] == nil {
			// A later worker raced past a failed run; the error is ahead.
			continue
		}
		for i := range results {
			results[i].Runs += perRun[r][i].Runs
			results[i].Counts.Add(perRun[r][i].Counts)
			results[i].Violations += perRun[r][i].Violations
			results[i].Latencies = append(results[i].Latencies, perRun[r][i].Latencies...)
		}
	}
	sortLatencies(results)
	return results, nil
}
