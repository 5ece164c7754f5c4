package churn

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"qcommit/internal/core"
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

	// The benchmark's sim_churn point, runs 0–19 of its seed 1. Windows and
	// conflict radii sized from each arrival's own plan, with a crash or
	// restart replayed only when it lands before the decision is done with
	// its site and a window cut at the horizon read analytically, replay
	// 6.2–6.9 transactions per (run, protocol): 96.6–97.0 % analytic. A
	// window refused for any fault at the coordinator or a participant, or
	// for overhanging the horizon, replayed 10.35 (94.9 %); the fixed 5T
	// window and 6T radius before that, 15.0.
	simChurn := simChurnParams()
	specs := StandardBuilders()
	replayed := make([]int, len(specs))
	submitted := make([]int, len(specs))
	for r := 0; r < 20; r++ {
		sc, err := generateScript(simChurn, simChurnSeed(r))
		if err != nil {
			t.Fatal(err)
		}
		for j, spec := range specs {
			st, err := executeRunHybrid(sc, simChurn, simChurnSeed(r), spec)
			if err != nil {
				t.Fatal(err)
			}
			replayed[j] += st.counts.Submitted - st.analytic
			submitted[j] += st.counts.Submitted
		}
	}
	for j, spec := range specs {
		share := 1 - float64(replayed[j])/float64(submitted[j])
		t.Logf("sim_churn %s: %.2f replayed per run, %.1f%% analytic", spec.Name(), float64(replayed[j])/20, 100*share)
		if share < 0.96 {
			t.Errorf("sim_churn %s: %.1f%% of submissions analytic, want at least 96%%", spec.Name(), 100*share)
		}
	}
}

// TestHybridMatchesReplayAtSimChurn is the differential contract at the
// benchmark's own point, per run and per protocol column rather than summed
// over a study: runs 0–39 of bench/'s seed 1, each column's fates and
// violations identical under both engines.
func TestHybridMatchesReplayAtSimChurn(t *testing.T) {
	params := simChurnParams()
	for r := 0; r < 40; r++ {
		seed := simChurnSeed(r)
		sc, err := generateScript(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range StandardBuilders() {
			replay, err := executeRun(sc, params, seed, spec)
			if err != nil {
				t.Fatal(err)
			}
			hybrid, err := executeRunHybrid(sc, params, seed, spec)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := fatesOf(runResult(replay)), fatesOf(runResult(hybrid)); want != got {
				t.Errorf("run %d %s: fates diverged\nreplay %+v\nhybrid %+v", r, spec.Name(), want, got)
			}
		}
	}
}

// runResult wraps one (run, protocol) evaluation as the Result a study would
// add it into.
func runResult(st runStats) Result {
	return Result{Runs: 1, Counts: st.counts, Violations: st.violations}
}

// The pins below hand-build a one-transaction world — item x with one-vote
// copies at sites 1–3 under majority quorums, site 4 holding none, and one
// write of x arriving at pinAt — and check, in every protocol column, that
// the hybrid admits each case the per-site rule calls invisible (and
// replays the rest) with replay's fate, latency and pending time. The
// fault instants are read off the column's own decision deliveries in the
// fault-free world, so each case sits on the boundary it pins.
const (
	pinAt   = sim.Time(100 * sim.Millisecond)
	pinSeed = 11
)

func pinScript(coord types.SiteID, events ...Event) *script {
	asgn := voting.MustAssignment(voting.Uniform("x", 2, 2, 1, 2, 3))
	ws := types.Writeset{{Item: "x", Value: 7}}
	sc := &script{
		sites:    []types.SiteID{1, 2, 3, 4},
		asgn:     asgn,
		events:   events,
		arrivals: []arrival{{At: pinAt, Coord: coord, Writeset: ws, Participants: asgn.Participants(ws.Items())}},
	}
	for i, ev := range events {
		if ev.Kind == EventRestart || ev.Kind == EventHeal {
			sc.repairs = append(sc.repairs, i)
		}
	}
	return sc
}

func pinParams(horizon sim.Time) Params {
	return Params{Horizon: sim.Duration(horizon), Engine: EngineHybrid}
}

// pinDecision plans the fault-free pin world under spec and returns the
// plan, when the column's decision reaches each reachable participant
// (parallel to the plan's reach), the first decision record, the
// coordinator's last delivery and the first VOTE-REQ's landing.
func pinDecision(t *testing.T, coord types.SiteID, params Params, spec core.Spec) (p *arrivalPlan, touch []sim.Time, first, last, voteReq sim.Time) {
	t.Helper()
	sc := pinScript(coord)
	if _, err := executeRunHybrid(sc, params, pinSeed, spec); err != nil {
		t.Fatal(err)
	}
	p = &sc.hybridPlans[0]
	h := &hybridRun{sc: sc, params: params, seed: pinSeed, spec: spec}
	tDecide, _, ok := h.decision(&sc.arrivals[0], p)
	if !ok {
		t.Fatalf("%s: the fault-free pin world is not analytic", spec.Name())
	}
	first, last = h.deliveries(p, tDecide)
	voteReq = sim.Time(params.Horizon)
	for _, s := range p.reach {
		voteReq = min(voteReq, pinAt.Add(worldNet.Delay(pinSeed, p.coord, s, pinAt)))
	}
	return p, slices.Clone(h.touch), first, last, voteReq
}

// pinSig is what the pins compare: the fates, the pending time and the
// latencies.
type pinSig struct {
	Committed, Aborted, Blocked, Unresolved, Violations int
	PendingNS                                           int64
	Latencies                                           string
}

func pinSigOf(st runStats) pinSig {
	c := st.counts
	return pinSig{c.Committed, c.Aborted, c.Blocked, c.Unresolved, st.violations, c.PendingNS, fmt.Sprint(st.latencies)}
}

// requirePinned runs sc under spec in both engines, requires the hybrid to
// decide the arrival analytically exactly when wantAnalytic says, with
// replay's fate, latency and pending time, and returns replay's.
func requirePinned(t *testing.T, name string, sc *script, params Params, spec core.Spec, wantAnalytic bool) pinSig {
	t.Helper()
	replay, err := executeRun(sc, params, pinSeed, spec)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := executeRunHybrid(sc, params, pinSeed, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := hybrid.analytic == 1; got != wantAnalytic {
		t.Errorf("%s %s: analytic = %v, want %v", spec.Name(), name, got, wantAnalytic)
	}
	r, h := pinSigOf(replay), pinSigOf(hybrid)
	if r != h {
		t.Errorf("%s %s: fates diverged\nreplay %+v\nhybrid %+v", spec.Name(), name, r, h)
	}
	return r
}

// inWindow fails the pin when an event it places lands outside the plan's
// window, where the rule it pins is not consulted at all.
func inWindow(t *testing.T, name string, p *arrivalPlan, at sim.Time) {
	t.Helper()
	if at <= pinAt || at > p.end {
		t.Fatalf("%s: event at %v is outside the window (%v, %v]", name, at, pinAt, p.end)
	}
}

func TestHybridAdmitsFaultsTheDecisionOutruns(t *testing.T) {
	T := worldNet.MaxDelayOrDefault()
	params := pinParams(sim.Time(sim.Second))
	crash := func(at sim.Time, s types.SiteID) Event { return Event{At: at, Kind: EventCrash, Site: s} }
	restart := func(at sim.Time, s types.SiteID) Event { return Event{At: at, Kind: EventRestart, Site: s} }
	for _, spec := range StandardBuilders() {
		// A participant down at arrival never got the VOTE-REQ; it is back
		// before the vote timeout, so the ABORT reaches it with no context.
		sc := pinScript(1, crash(pinAt-sim.Time(5*sim.Millisecond), 3), restart(pinAt.Add(T), 3))
		if got := requirePinned(t, "down at arrival, restarted mid-window", sc, params, spec, true); got.Aborted != 1 {
			t.Errorf("%s: down-at-arrival pin reads %+v, want one abort", spec.Name(), got)
		}

		p, touch, _, last, _ := pinDecision(t, 1, params, spec)
		k := slices.Index(p.reach, 3)
		name := "participant crashed and restarted after its decision"
		inWindow(t, name, p, touch[k]+2)
		requirePinned(t, name, pinScript(1, crash(touch[k]+1, 3), restart(touch[k]+2, 3)), params, spec, true)
		name = "coordinator crashed and restarted after its last delivery"
		inWindow(t, name, p, last+2)
		requirePinned(t, name, pinScript(1, crash(last+1, 1), restart(last+2, 1)), params, spec, true)

		// The decision is still on its way: termination's business.
		for _, at := range []sim.Time{touch[k] - 1, touch[k]} {
			requirePinned(t, fmt.Sprintf("participant crashed %v before its decision", touch[k]-at), pinScript(1, crash(at, 3)), params, spec, false)
		}
		requirePinned(t, "coordinator crashed at its last delivery", pinScript(1, crash(last, 1)), params, spec, false)

		// A pure coordinator decides in its own log, then sends.
		p, _, _, last, _ = pinDecision(t, 4, params, spec)
		name = "pure coordinator crashed after its last delivery"
		inWindow(t, name, p, last+1)
		requirePinned(t, name, pinScript(4, crash(last+1, 4)), params, spec, true)
		requirePinned(t, "pure coordinator crashed at its last delivery", pinScript(4, crash(last, 4)), params, spec, false)
	}
}

// TestHybridCutsWindowsAtTheHorizon pins the three fates replay reads from an
// arrival whose window overhangs the horizon.
func TestHybridCutsWindowsAtTheHorizon(t *testing.T) {
	for _, spec := range StandardBuilders() {
		_, _, first, _, voteReq := pinDecision(t, 1, pinParams(sim.Time(sim.Second)), spec)
		if voteReq-1 <= pinAt {
			t.Fatalf("%s: the first VOTE-REQ lands at %v, too soon after the arrival to cut before it", spec.Name(), voteReq)
		}
		for _, tc := range []struct {
			name    string
			horizon sim.Time
			want    func(pinSig) bool
		}{
			{"decided at the horizon", first, func(s pinSig) bool { return s.Committed == 1 }},
			{"cut after a vote", first - 1, func(s pinSig) bool { return s.Blocked == 1 }},
			{"cut at the first VOTE-REQ", voteReq, func(s pinSig) bool { return s.Blocked == 1 }},
			{"cut before any VOTE-REQ", voteReq - 1, func(s pinSig) bool { return s.Unresolved == 1 }},
		} {
			if got := requirePinned(t, tc.name, pinScript(1), pinParams(tc.horizon), spec, true); !tc.want(got) {
				t.Errorf("%s %s: replay reads %+v", spec.Name(), tc.name, got)
			}
		}
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
// study shapes: seed, strategy, churn rates, arrival rate, partition churn
// on or off, and the horizon.
func FuzzHybridMatchesReplay(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(1500), uint16(300), uint16(100), true, uint16(1500))
	f.Add(int64(99), uint8(1), uint16(800), uint16(150), uint16(40), false, uint16(1500))
	f.Add(int64(7), uint8(2), uint16(0), uint16(0), uint16(60), true, uint16(1500))
	f.Add(int64(-3), uint8(0), uint16(3000), uint16(900), uint16(25), false, uint16(1500))
	// Missing writes, site churn only: QC1 diverges (replay commits 2 of 9,
	// the hybrid 4) when the plan end is the decision's delivery hashed at
	// the decision bound instead of the bound plus one hop.
	f.Add(int64(-173), uint8(97), uint16(1305), uint16(409), uint16(225), false, uint16(1500))
	// Short horizons under dense arrivals, so many windows overhang the cut.
	f.Add(int64(5), uint8(0), uint16(1500), uint16(300), uint16(0), false, uint16(60))
	f.Add(int64(21), uint8(2), uint16(400), uint16(50), uint16(2), true, uint16(120))
	// Fast site churn without partitions: many crashes and restarts land in
	// windows, before and after the decision reaches their site.
	f.Add(int64(13), uint8(1), uint16(400), uint16(50), uint16(20), false, uint16(1500))
	f.Add(int64(34), uint8(0), uint16(400), uint16(50), uint16(10), false, uint16(1500))
	f.Fuzz(func(t *testing.T, seed int64, strat uint8, mttfMs, mttrMs, arrivalMs uint16, partitions bool, horizonMs uint16) {
		params := DefaultParams()
		params.Horizon = sim.Duration(max(horizonMs%3000, 10)) * sim.Millisecond
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
