package churn

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"qcommit/internal/engine"
	"qcommit/internal/sim"
	"qcommit/internal/simnet"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// fateSig is the signature the hybrid engine guarantees to reproduce
// bit-identically: every transaction fate plus the safety verdict. Probe
// counters and latencies are documented approximations and stay out.
type fateSig struct {
	Arrivals, Submitted, Committed, Aborted, Blocked, Unresolved, Rejected, Violations int
}

func fatesOf(r Result) fateSig {
	c := r.Counts
	return fateSig{
		Arrivals: c.Arrivals, Submitted: c.Submitted,
		Committed: c.Committed, Aborted: c.Aborted,
		Blocked: c.Blocked, Unresolved: c.Unresolved, Rejected: c.Rejected,
		Violations: r.Violations,
	}
}

func requireSameFates(t *testing.T, replay, hybrid []Result) {
	t.Helper()
	if len(replay) != len(hybrid) {
		t.Fatalf("column counts diverged: %d vs %d", len(replay), len(hybrid))
	}
	for i := range replay {
		if r, h := fatesOf(replay[i]), fatesOf(hybrid[i]); r != h {
			t.Errorf("%s: fates diverged\nreplay %+v\nhybrid %+v", replay[i].Label, r, h)
		}
	}
}

// TestHybridMatchesReplay is the differential contract: across every
// protocol, every access strategy, and a range of repair speeds, the hybrid
// engine's transaction fates and violation counts are bit-identical to full
// replay of the same seeded worlds.
func TestHybridMatchesReplay(t *testing.T) {
	strategies := []voting.Strategy{voting.StrategyQuorum, voting.StrategyMissingWrites, voting.StrategyDynamic}
	mttrs := []sim.Duration{150 * sim.Millisecond, 300 * sim.Millisecond, 600 * sim.Millisecond}
	for _, strategy := range strategies {
		for _, mttr := range mttrs {
			strategy, mttr := strategy, mttr
			t.Run(fmt.Sprintf("%s/mttr=%v", strategy, sim.Time(mttr)), func(t *testing.T) {
				params := testParams()
				params.Strategy = strategy
				params.MTTR = mttr
				replay, err := Study(params, 3, 1301, StandardBuilders())
				if err != nil {
					t.Fatal(err)
				}
				params.Engine = EngineHybrid
				hybrid, err := Study(params, 3, 1301, StandardBuilders())
				if err != nil {
					t.Fatal(err)
				}
				requireSameFates(t, replay, hybrid)
			})
		}
	}
}

// TestHybridMatchesReplayQuietWorlds covers the regimes where the analytic
// path dominates: no churn at all, and site churn without partitions.
func TestHybridMatchesReplayQuietWorlds(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"no churn", func(p *Params) { p.MTTF, p.MTTR = 0, 0 }},
		{"site churn only", func(p *Params) { p.PartitionMTBF, p.PartitionMTTR = 0, 0 }},
		{"sparse arrivals", func(p *Params) { p.MeanInterarrival = 400 * sim.Millisecond }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			params := testParams()
			tc.mutate(&params)
			replay, err := Study(params, 3, 77, StandardBuilders())
			if err != nil {
				t.Fatal(err)
			}
			params.Engine = EngineHybrid
			hybrid, err := Study(params, 3, 77, StandardBuilders())
			if err != nil {
				t.Fatal(err)
			}
			requireSameFates(t, replay, hybrid)
		})
	}
}

// TestHybridAnalyticCoverage pins that the analytic path carries real load —
// a hybrid engine that silently replays everything would pass the
// differential suite while defeating its purpose. Even under the test
// configuration's heavy churn (epochs barely longer than the commit window),
// every protocol column must decide at least a third of its submissions
// analytically, and a quiet world must decide everything analytically.
func TestHybridAnalyticCoverage(t *testing.T) {
	params := testParams()
	// The test configuration's 4-item universe chains almost every arrival
	// into one conflict cluster; a wider item space makes write conflicts
	// rare, the realistic large-study regime the engine is built for.
	params.NumItems = 64
	sc, err := generateScript(params, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range StandardBuilders() {
		st, err := executeRunHybrid(sc, params, 5, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.counts.Submitted == 0 {
			t.Fatalf("%s: no submissions", spec.Name())
		}
		if st.analytic*3 < st.counts.Submitted {
			t.Errorf("%s: only %d/%d submissions decided analytically", spec.Name(), st.analytic, st.counts.Submitted)
		}
	}

	quiet := params
	quiet.MTTF, quiet.MTTR = 0, 0
	quiet.PartitionMTBF, quiet.PartitionMTTR = 0, 0
	quiet.MeanInterarrival = 400 * sim.Millisecond
	sc, err = generateScript(quiet, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range StandardBuilders() {
		st, err := executeRunHybrid(sc, quiet, 5, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.analytic != st.counts.Submitted {
			t.Errorf("%s: %d/%d analytic in a quiet sparse world", spec.Name(), st.analytic, st.counts.Submitted)
		}
	}

	// The benchmark's sim_churn point, runs 0–19 of its seed 1: windows and
	// conflict radii sized from each arrival's own plan replay about 10.4
	// transactions per (run, protocol); the fixed 5T window and 6T radius
	// they replaced replayed 15.0.
	simChurn := simChurnParams()
	replayed, columns := 0, 0
	for r := 0; r < 20; r++ {
		sc, err := generateScript(simChurn, simChurnSeed(r))
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range StandardBuilders() {
			st, err := executeRunHybrid(sc, simChurn, simChurnSeed(r), spec)
			if err != nil {
				t.Fatal(err)
			}
			replayed += st.counts.Submitted - st.analytic
			columns++
		}
	}
	if mean := float64(replayed) / float64(columns); mean > 12 {
		t.Errorf("sim_churn: %.2f transactions replayed per (run, protocol), want at most 12", mean)
	}
}

// TestAnalyticFootprintWithinPlanEnd pins the bound the analytic window
// and the conflict radius are sized from: in full replay of the same script,
// a transaction the hybrid decides analytically holds no lock and is
// terminal at every reached participant by its plan end + 1. A plan end
// that undercuts the real footprint (say, a decision delivery hashed at the
// decision bound rather than at the real send) lets a neighbour's locks or a
// fault overlap a window the hybrid calls quiet, which the fate
// differential tests see only on rare seeds.
func TestAnalyticFootprintWithinPlanEnd(t *testing.T) {
	partitions := simChurnParams()
	partitions.PartitionMTBF = 1200 * sim.Millisecond
	partitions.PartitionMTTR = 400 * sim.Millisecond
	T := simnet.Config{}.MaxDelayOrDefault()
	for _, pt := range []struct {
		name   string
		params Params
	}{{"sim_churn", simChurnParams()}, {"partitions", partitions}} {
		checks, misses := 0, 0
		for r := 0; r < 10; r++ {
			seed := simChurnSeed(r)
			params := pt.params
			horizon := sim.Time(params.Horizon)
			sc, err := generateScript(params, seed)
			if err != nil {
				t.Fatal(err)
			}
			sc.hybridPlans = buildHybridPlans(sc, seed, sc.epochs(horizon), T, horizon)
			sc.hybridMulti = conflictClusters(sc.arrivals, sc.hybridPlans)
			sc.hybridSeed = seed
			for _, spec := range StandardBuilders() {
				txns := make([]types.TxnID, len(sc.arrivals))
				cl := newWorld(sc, params, seed, spec, txns, func(cl *engine.Cluster) {
					for i := range sc.arrivals {
						a := &sc.arrivals[i]
						cl.Scheduler().At(a.At, func() {
							if coord := a.coordinator(func(s types.SiteID) bool { return !cl.Network().Down(s) }); coord != 0 {
								txns[i] = cl.Begin(coord, a.Writeset)
							}
						})
					}
				})
				// A nil world skips the live lock probe: every arrival the
				// plan and the rule table admit is checked.
				h := &hybridRun{sc: sc, params: params, seed: seed, spec: spec}
				for i := range sc.arrivals {
					a, p := &sc.arrivals[i], &sc.hybridPlans[i]
					if p.coord == 0 {
						continue
					}
					if _, _, ok := h.classify(i, a, p); !ok {
						continue
					}
					checks++
					cl.Scheduler().At(p.end+1, func() {
						for _, s := range p.reach {
							if items := cl.Site(s).Locks().HeldItems(txns[i]); len(items) != 0 || !cl.StateOf(s, txns[i]).Terminal() {
								misses++
								if misses <= 5 {
									t.Errorf("%s seed %d %s: arrival %d (at %v, end %v): site %d holds %v in state %v at end+1",
										pt.name, seed, spec.Name(), i, a.At, p.end, s, items, cl.StateOf(s, txns[i]))
								}
								return
							}
						}
					})
				}
				cl.Scheduler().RunUntil(horizon)
			}
		}
		t.Logf("%s: %d analytic arrivals checked, %d outside their plan end", pt.name, checks, misses)
		if checks < 4000 {
			t.Errorf("%s: only %d analytic arrivals checked", pt.name, checks)
		}
		if misses > 0 {
			t.Errorf("%s: %d of %d analytic arrivals outlive their plan end in replay", pt.name, misses, checks)
		}
	}
}

// TestHybridParallelMatchesSerial extends the repo's determinism contract to
// the hybrid engine: StudyParallel must return Results bit-for-bit identical
// to the serial oracle for every tested worker count.
func TestHybridParallelMatchesSerial(t *testing.T) {
	params := testParams()
	params.Engine = EngineHybrid
	specs := StandardBuilders()
	const runs = 8
	want, err := Study(params, runs, 1, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		got, err := StudyParallel(params, runs, 1, specs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: hybrid parallel diverged from serial", workers)
		}
	}
}

// conflictClusters is pure arithmetic over the arrival stream and each
// arrival's plan end; pin the chaining and windowing behavior directly.
func TestConflictClusters(t *testing.T) {
	ws := func(items ...string) types.Writeset {
		var w types.Writeset
		for _, it := range items {
			w = append(w, types.Update{Item: types.ItemID(it), Value: 1})
		}
		return w
	}
	const rejected = -1
	rows := []struct {
		at  sim.Time
		len sim.Duration // plan end - arrival; rejected = no coordinator
		ws  types.Writeset
	}{
		{0, 100, ws("a")},
		{50, 100, ws("b")},      // disjoint item: alone
		{80, 100, ws("a", "c")}, // links to 0 via "a"
		{150, 100, ws("c")},     // links to 2 via "c" → cluster {0,2,3}
		{1000, 100, ws("a")},    // "a" again, far outside the window
		{1040, 100, ws("d")},    // alone
		{1100, 100, ws("a")},    // links to 4
		// A long writer keeps the item past a short writer in between: the
		// last arrival is past the short writer's end but not the long
		// one's, so it links to the long writer's cluster.
		{2000, 500, ws("e")},
		{2100, 50, ws("e")},  // links to 7
		{2300, 100, ws("e")}, // past 8's end (2150), within 7's (2500)
		// A rejected arrival begins nothing, so it links nothing: not to
		// the earlier "g" writer, and not to the later "h" writer.
		{3000, 100, ws("g")},
		{3050, rejected, ws("g", "h")},
		{3080, 100, ws("h")},
	}
	arrivals := make([]arrival, len(rows))
	plans := make([]arrivalPlan, len(rows))
	for i, r := range rows {
		arrivals[i] = arrival{At: r.at, Writeset: r.ws}
		if r.len != rejected {
			plans[i] = arrivalPlan{coord: 1, end: r.at.Add(r.len)}
		}
	}
	got := conflictClusters(arrivals, plans)
	want := []bool{true, false, true, true, true, false, true, true, true, true, false, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clusters = %v, want %v", got, want)
	}
	if out := conflictClusters(nil, nil); len(out) != 0 {
		t.Errorf("empty stream produced %v", out)
	}
}

// FuzzHybridMatchesReplay drives the differential contract over fuzzed
// study shapes: seed, strategy, churn rates, arrival rate, and partition
// churn on or off.
func FuzzHybridMatchesReplay(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(1500), uint16(300), uint16(100), true)
	f.Add(int64(99), uint8(1), uint16(800), uint16(150), uint16(40), false)
	f.Add(int64(7), uint8(2), uint16(0), uint16(0), uint16(60), true)
	f.Add(int64(-3), uint8(0), uint16(3000), uint16(900), uint16(25), false)
	// Missing writes, site churn only: QC1 diverges (replay commits 2 of 9,
	// the hybrid 4) when the plan end is the decision's delivery hashed at
	// the decision bound instead of the bound plus one hop.
	f.Add(int64(-173), uint8(97), uint16(1305), uint16(409), uint16(225), false)
	f.Fuzz(func(t *testing.T, seed int64, strat uint8, mttfMs, mttrMs, arrivalMs uint16, partitions bool) {
		params := DefaultParams()
		params.Horizon = 1500 * sim.Millisecond
		params.Strategy = []voting.Strategy{
			voting.StrategyQuorum, voting.StrategyMissingWrites, voting.StrategyDynamic,
		}[int(strat)%3]
		params.MTTF = sim.Duration(mttfMs%4000) * sim.Millisecond
		params.MTTR = sim.Duration(mttrMs%1200) * sim.Millisecond
		if params.MTTF == 0 || params.MTTR == 0 {
			params.MTTF, params.MTTR = 0, 0
		}
		if partitions {
			params.PartitionMTBF = 1200 * sim.Millisecond
			params.PartitionMTTR = 400 * sim.Millisecond
		}
		params.MeanInterarrival = sim.Duration(arrivalMs%500+10) * sim.Millisecond
		replay, err := Study(params, 1, seed, StandardBuilders())
		if err != nil {
			t.Skip(err)
		}
		params.Engine = EngineHybrid
		hybrid, err := Study(params, 1, seed, StandardBuilders())
		if err != nil {
			t.Fatalf("hybrid errored where replay succeeded: %v", err)
		}
		requireSameFates(t, replay, hybrid)
	})
}
