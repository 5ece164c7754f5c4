package main

import (
	"fmt"
	"time"

	"qcommit/internal/churn"
	"qcommit/internal/core"
	"qcommit/internal/engine"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/sim"
	"qcommit/internal/simnet"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// churnParams is the sim_churn study point: the 32-site row of the churnbench
// size sweep (16 items per site, 4 copies, 25ms inter-arrival) under the
// faster 20s/1s fail/repair cycle, five virtual seconds per run.
var churnParams = churn.Params{
	NumSites: 32, NumItems: 512, CopiesPerItem: 4, WritesPerTxn: 2,
	MeanInterarrival: 25 * sim.Millisecond,
	MTTF:             20 * sim.Second, MTTR: sim.Second, MaxGroups: 3,
	Horizon: 5 * sim.Second,
	Engine:  churn.EngineHybrid,
}

// churnCheckRuns is how many runs each set-up repetition evaluates under both
// engines and requires identical — enough that a repetition is over a second
// of work; the repetitions check consecutive blocks, so the three of them
// cover the first 24 runs of the seed.
const churnCheckRuns = 8

// runSeed spreads consecutive benchmark seeds apart so their run sequences do
// not overlap.
func runSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) }

// churnOne evaluates one seeded run under all five standard protocols.
func churnOne(p churn.Params, seed int64) ([]churn.Result, error) {
	return churn.Study(p, 1, seed, churn.StandardBuilders())
}

// sameFates reports whether two engines decided a run identically.
func sameFates(a, b []churn.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].Counts, b[i].Counts
		if a[i].Violations != b[i].Violations || x.Arrivals != y.Arrivals || x.Submitted != y.Submitted ||
			x.Rejected != y.Rejected || x.Committed != y.Committed || x.Aborted != y.Aborted ||
			x.Blocked != y.Blocked || x.Unresolved != y.Unresolved {
			return false
		}
	}
	return true
}

// setUpChurn is one set-up repetition: block rep of the seed's runs, under
// replay and under hybrid, must agree. It returns the time each engine took.
func setUpChurn(seed int64, rep int) (replay, hybrid time.Duration, err error) {
	slow := churnParams
	slow.Engine = churn.EngineReplay
	for r := rep * churnCheckRuns; r < (rep+1)*churnCheckRuns; r++ {
		t0 := time.Now()
		want, err := churnOne(slow, runSeed(seed, r))
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		got, err := churnOne(churnParams, runSeed(seed, r))
		if err != nil {
			return 0, 0, err
		}
		replay += t1.Sub(t0)
		hybrid += time.Since(t1)
		if !sameFates(want, got) {
			return 0, 0, fmt.Errorf("run %d: hybrid engine disagrees with replay", r)
		}
	}
	return replay, hybrid, nil
}

// measureChurn runs seeded churn runs one after another for the window. One
// operation is one run under all five protocols; it fails on an error or an
// atomicity violation.
func measureChurn(seed int64, seconds float64, res *result) {
	var win window
	start := time.Now()
	for r := 0; time.Since(start).Seconds() < seconds; r++ {
		t0 := time.Now()
		out, err := churnOne(churnParams, runSeed(seed, r))
		end := time.Now()
		res.attempted++
		bad := err != nil
		for _, o := range out {
			bad = bad || o.Violations > 0
		}
		if bad {
			res.failed++
			continue
		}
		res.succeeded++
		win.latMs = append(win.latMs, float64(end.Sub(t0))/float64(time.Millisecond))
	}
	win.seconds = time.Since(start).Seconds()
	res.measured(win)
	res.layer["client.latency_p95_ms"] = percentile(win.latMs, 95)
	res.layer["client.latency_p99_ms"] = percentile(win.latMs, 99)
}

func runSimChurn(c runCtx) (*result, error) {
	res := newResult()
	reps := setupReps
	if c.trace {
		reps = 1
	}
	var replay, hybrid time.Duration
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		r, h, err := setUpChurn(c.seed, rep)
		if err != nil {
			return nil, err
		}
		replay, hybrid = replay+r, hybrid+h
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	res.notes["replay_checked_runs"] = reps * churnCheckRuns
	if !c.trace {
		measureChurn(c.seed, c.seconds, res)
		return res, nil
	}

	// The simulators have no wrapper to install: the "traced" window runs the
	// same code as the baseline, so the ratio states the run-to-run noise.
	base := newResult()
	measureChurn(c.seed, c.seconds/3, base)
	measureChurn(c.seed, c.seconds*2/3, res)
	l := res.layer
	l["trace.overhead_ratio"] = ratio(res.goodput, base.goodput)
	l["churn.hybrid_speedup"] = ratio(float64(replay), float64(hybrid))
	if err := probeEngine(c.seed, l); err != nil {
		return nil, err
	}
	probeDecide(l)
	return res, nil
}

// probeEngine times the discrete-event engine alone: 64 replay-engine churn
// runs at the default 8-site scale, and the scheduler's event rate while one
// simulated QC1 cluster commits a stream of transactions.
func probeEngine(seed int64, layer map[string]float64) error {
	p := churn.DefaultParams()
	const runs = 64
	t0 := time.Now()
	for r := 0; r < runs; r++ {
		if _, err := churnOne(p, runSeed(seed, r)); err != nil {
			return err
		}
	}
	layer["engine.replay_runs_per_s"] = runs / time.Since(t0).Seconds()

	sites := []types.SiteID{1, 2, 3, 4, 5}
	rq, wq := voting.MajorityQuorums(len(sites))
	const items = 64
	configs := make([]voting.ItemConfig, items)
	for i := range configs {
		configs[i] = voting.Uniform(types.ItemID(fmt.Sprintf("k%02d", i)), rq, wq, sites...)
	}
	asgn, err := voting.NewAssignment(configs...)
	if err != nil {
		return err
	}
	cl := engine.New(engine.Config{Seed: seed, Net: simnet.Config{}, Assignment: asgn, Spec: core.Spec{Variant: core.Protocol1}})
	cl.Recorder().Disable()
	sched := cl.Scheduler()
	const txns = 5000
	for i := 0; i < txns; i++ {
		i := i
		sched.At(sim.Time(i)*sim.Time(sim.Millisecond), func() {
			cl.Begin(sites[i%len(sites)], types.Writeset{{Item: configs[i%items].Item, Value: int64(i)}})
		})
	}
	t0 = time.Now()
	cl.Run()
	layer["sim.events_per_s"] = float64(sched.Steps()) / time.Since(t0).Seconds()
	if v := cl.Violations(); len(v) > 0 {
		return fmt.Errorf("engine probe: %d violations", len(v))
	}
	return nil
}

// probeDecide times quorumcalc's TP1 decision over a five-site tally.
func probeDecide(layer map[string]float64) {
	sites := []types.SiteID{1, 2, 3, 4, 5}
	rq, wq := voting.MajorityQuorums(len(sites))
	asgn := voting.MustAssignment(voting.Uniform("x", rq, wq, sites...), voting.Uniform("y", rq, wq, sites...))
	decide := quorumcalc.TP1([]types.ItemID{"x", "y"})
	states := []types.State{types.StateWait, types.StatePC, types.StateWait, types.StatePC, types.StatePC}
	var tally quorumcalc.Tally
	var sink types.Outcome
	t0 := time.Now()
	for i := 0; i < probeCalls; i++ {
		tally.Reset()
		for j, id := range sites {
			tally.Add(id, states[(i+j)%len(states)])
		}
		sink = decide(asgn, &tally)
	}
	layer["quorumcalc.decide_ns"] = float64(time.Since(t0)) / probeCalls
	_ = sink
}
