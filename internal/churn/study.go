package churn

import (
	"fmt"

	"qcommit/internal/core"
	"qcommit/internal/engine"
	"qcommit/internal/par"
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

// decided tallies a submitted transaction whose first decision came lat
// after its arrival.
func (st *runStats) decided(lat sim.Duration, committed bool) {
	st.counts.PendingNS += int64(lat)
	st.latencies = append(st.latencies, lat)
	if committed {
		st.counts.Committed++
	} else {
		st.counts.Aborted++
	}
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

// worldNet is every churn world's network: 0–10 ms delays, lossless, no
// codec. The hybrid's arithmetic reads the same delays from it.
var worldNet = simnet.Config{}

// newWorld builds one run's cluster on the script's shared seed tables and
// schedules, in this order, the fault timeline, the caller's up-front events
// (submit; replay's arrival closures, nil for the hybrid's fallback world)
// and the post-repair kicks over txns. txns[i] is arrival i's transaction ID
// in this world (0 = not submitted here); the kicks read it when they fire,
// so the caller fills it in as it submits.
//
// ExtraSites keeps copy-less sites in the cluster: random placement may leave
// a site with no replicas, but the timeline still crashes and restarts it.
// Delays come from simnet's per-message hash, so a world that simulates only
// a subset of the traffic sees the same delay on every message it shares with
// the full replay.
func newWorld(sc *script, params Params, seed int64, spec core.Spec, txns []types.TxnID, submit func(*engine.Cluster)) *engine.Cluster {
	if sc.seeds == nil {
		sc.seeds = engine.SeedTables(sc.asgn, 0, nil)
	}
	cl := engine.New(engine.Config{
		Seed:       seed,
		Net:        worldNet,
		Assignment: sc.asgn,
		Strategy:   params.Strategy,
		Spec:       spec,
		ExtraSites: sc.sites,
		SeedStores: sc.seeds,
	})
	cl.Recorder().Disable()
	sched := cl.Scheduler()
	sched.MaxSteps = 4_000_000 + uint64(len(sc.arrivals))*stepsPerArrival

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
	if submit != nil {
		submit(cl)
	}

	// After every repair event, re-kick stalled transactions: Kick resets
	// the termination-round budget and starts a fresh election, so progress
	// made possible by the repair is actually attempted. Only transactions
	// past the kick grace are touched — a younger transaction's commit
	// protocol is still running, and forcing termination under it would
	// race the live coordinator (the engine's patience timers embody the
	// same discipline). These callbacks are scheduled after the timeline's
	// and the submissions, so at equal times the repair itself runs first.
	// Kick skips terminated transactions itself.
	grace := sim.Duration(kickGraceT) * cl.T()
	for _, ri := range sc.repairs {
		sched.At(sc.events[ri].At, func() {
			now := sched.Now()
			for i, txn := range txns {
				if txn != 0 && sc.arrivals[i].At.Add(grace) <= now {
					cl.Kick(txn)
				}
			}
		})
	}
	return cl
}

// finishWorld runs a world from newWorld to the horizon and reads out what
// it decided: the strategy transitions, the fate and latency of every
// transaction listed in txns, and the violations. Rejections, submissions
// and post-submission time are the caller's to count, since only the caller
// knows which arrivals never reached this world.
func finishWorld(cl *engine.Cluster, sc *script, params Params, seed int64, spec core.Spec, txns []types.TxnID, st *runStats) error {
	horizon := sim.Time(params.Horizon)
	sched := cl.Scheduler()
	sched.RunUntil(horizon)
	if sched.MaxSteps != 0 && sched.Steps() >= sched.MaxSteps {
		return fmt.Errorf("churn: %s %s run (seed %d) exhausted %d scheduler steps before the horizon", spec.Name(), params.Engine, seed, sched.MaxSteps)
	}
	st.counts.ModeDemotions, st.counts.ModeRestorations = cl.Tracker().ModeTransitions()
	st.counts.VoteReassignments, st.counts.VoteRestorations = cl.Tracker().VoteTransitions()
	all := cl.Sites()
	for i, txn := range txns {
		if txn == 0 {
			continue
		}
		a := &sc.arrivals[i]
		if decidedAt, ok := cl.FirstDecisionAt(txn); ok {
			st.decided(sim.Duration(decidedAt-a.At), cl.GroupOutcome(txn, all) == types.OutcomeCommitted)
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
	return nil
}

// executeRun replays one script under one protocol: newWorld with every
// arrival submitted up front, then finishWorld reads every transaction's
// fate.
func executeRun(sc *script, params Params, seed int64, spec core.Spec) (runStats, error) {
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
	var st runStats
	horizon := sim.Time(params.Horizon)
	txnOf := make([]types.TxnID, len(sc.arrivals))
	cl := newWorld(sc, params, seed, spec, txnOf, func(cl *engine.Cluster) {
		for i, a := range sc.arrivals {
			cl.Scheduler().At(a.At, func() {
				for _, u := range a.Writeset {
					st.counts.AccessChecks++
					if cl.CanRead(a.Coord, u.Item) {
						st.counts.ReadAvailable++
					}
					if cl.CanWrite(a.Coord, u.Item) {
						st.counts.WriteAvailable++
					}
				}
				coord := a.coordinator(func(s types.SiteID) bool { return !cl.Network().Down(s) })
				if coord == 0 {
					st.counts.Rejected++
					return
				}
				st.counts.Submitted++
				st.counts.PostSubmitNS += int64(horizon - a.At)
				txnOf[i] = cl.Begin(coord, a.Writeset)
			})
		}
	})
	if err := finishWorld(cl, sc, params, seed, spec, txnOf, &st); err != nil {
		return runStats{}, err
	}
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
		st.counts.Arrivals = len(sc.arrivals)
		st.counts.SiteDownNS = sc.siteDownNS
		st.counts.PartitionedNS = sc.partitionedNS
		results[i].add(Result{Runs: 1, Counts: st.counts, Violations: st.violations, Latencies: st.latencies})
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

// validateStudy refuses a study that cannot be run. Zero runs is a valid,
// empty study: one labelled Result per spec with nothing in it.
func validateStudy(params Params, runs int) error {
	if runs < 0 {
		return fmt.Errorf("churn: %d runs: the run count must not be negative", runs)
	}
	return params.validate()
}

// Study evaluates runs independent churn runs under every spec and
// aggregates, one Result per spec labelled with its Name. All specs see
// identical worlds. This serial path is the determinism oracle for
// StudyParallel.
func Study(params Params, runs int, seed int64, specs []core.Spec) ([]Result, error) {
	if err := validateStudy(params, runs); err != nil {
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

// StudyParallel is the worker-pool version of Study: par.Ordered fans runs
// out across opts.Workers goroutines (one run per claim — a run is already a
// 5-protocol simulation batch) and merges the per-run accumulators in
// ascending run order. Results are bit-for-bit identical to the serial Study
// for any worker count.
func StudyParallel(params Params, runs int, seed int64, specs []core.Spec, opts Options) ([]Result, error) {
	if err := validateStudy(params, runs); err != nil {
		return nil, err
	}
	results := newResults(specs)
	if err := par.Ordered(runs, 1, par.Workers(opts.Workers, runs), func(_, r, _ int) ([]Result, error) {
		acc := newResults(specs)
		return acc, accumulateRun(params, seed, r, specs, acc)
	}, func(acc []Result) {
		for i := range results {
			results[i].add(acc[i])
		}
	}, opts.Progress); err != nil {
		return nil, err
	}
	sortLatencies(results)
	return results, nil
}
