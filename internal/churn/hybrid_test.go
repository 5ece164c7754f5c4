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
	// conflict radii sized from each arrival's own plan, a crash or restart
	// replayed only when it lands before the decision is done with its
	// site, a window cut at the horizon read analytically, and a
	// write-write pair with no fault event in its windows folded, replay
	// 2.25–3.20 transactions per (run, protocol): 98.41–98.88 % analytic
	// (the floor is the lowest less half a point). Every pair replayed,
	// 6.2–6.9 (96.6–97.0 %); a window refused for any fault at the
	// coordinator or a participant, or for overhanging the horizon, 10.35
	// (94.9 %); the fixed 5T window and 6T radius before that, 15.0.
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
		t.Logf("sim_churn %s: %.2f replayed per run, %.2f%% analytic", spec.Name(), float64(replayed[j])/20, 100*share)
		if share < 0.979 {
			t.Errorf("sim_churn %s: %.2f%% of submissions analytic, want at least 97.9%%", spec.Name(), 100*share)
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

// TestHybridMatchesReplayAtDenseItems is the per-(run, column) contract at
// the sim_churn point with 128 items instead of 512, where write-write pairs
// are four times as common: runs 0–39 of bench/'s seed 1, each column's
// fates, violations and pending time identical under both engines.
func TestHybridMatchesReplayAtDenseItems(t *testing.T) {
	params := simChurnParams()
	params.NumItems = 128
	pairs := 0
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
			want, got := fatesOf(runResult(replay)), fatesOf(runResult(hybrid))
			if want != got || replay.counts.PendingNS != hybrid.counts.PendingNS {
				t.Errorf("run %d %s: diverged\nreplay %+v pending %d\nhybrid %+v pending %d",
					r, spec.Name(), want, replay.counts.PendingNS, got, hybrid.counts.PendingNS)
			}
		}
		for i, j := range sc.hybridPartner {
			if j > i {
				pairs++
			}
		}
	}
	t.Logf("%d pairs over 40 runs", pairs)
	if pairs < 250 {
		t.Errorf("only %d pairs over 40 runs: the test no longer reaches the fold", pairs)
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
	n := 0
	if wantAnalytic {
		n = 1
	}
	return requireAnalytic(t, name, sc, params, spec, n)
}

// requireAnalytic is requirePinned for a world of any size: the hybrid must
// decide exactly wantAnalytic of its submissions without replay.
func requireAnalytic(t *testing.T, name string, sc *script, params Params, spec core.Spec, wantAnalytic int) pinSig {
	t.Helper()
	replay, err := executeRun(sc, params, pinSeed, spec)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := executeRunHybrid(sc, params, pinSeed, spec)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.analytic != wantAnalytic {
		t.Errorf("%s %s: %d analytic, want %d", spec.Name(), name, hybrid.analytic, wantAnalytic)
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

// The pair pins hand-build worlds around two writers of a common item over
// sites 1–5: z has its one copy at site 3, y copies at sites 2 and 3, v one
// at site 2, and u one at site 5, which is down from 1 ms on (an unreachable
// participant). The first writer arrives at pinAt. Each case scans the
// second arrival's instant until replay shows the case's fates with the two
// linked as a pair, and the hybrid must then fold the pair (or replay it)
// as the case says, with replay's fates, latencies and pending time.
var pairAsgn = voting.MustAssignment(
	voting.Uniform("z", 1, 1, 3),
	voting.Uniform("y", 1, 2, 2, 3),
	voting.Uniform("v", 1, 1, 2),
	voting.Uniform("u", 1, 1, 5),
)

func pairArrival(at sim.Time, coord types.SiteID, items ...types.ItemID) arrival {
	ws := make(types.Writeset, len(items))
	for i, x := range items {
		ws[i] = types.Update{Item: x, Value: int64(i + 1)}
	}
	return arrival{At: at, Coord: coord, Writeset: ws, Participants: pairAsgn.Participants(ws.Items())}
}

func pairScript(arrivals ...arrival) *script {
	return &script{
		sites:    []types.SiteID{1, 2, 3, 4, 5},
		asgn:     pairAsgn,
		events:   []Event{{At: sim.Time(sim.Millisecond), Kind: EventCrash, Site: 5}},
		arrivals: arrivals,
	}
}

// replayFates replays sc under spec and returns each arrival's outcome at
// the horizon and its first decision record's instant, read as finishWorld
// reads them.
func replayFates(sc *script, params Params, spec core.Spec) []fate {
	txns := make([]types.TxnID, len(sc.arrivals))
	cl := newWorld(sc, params, pinSeed, spec, txns, func(cl *engine.Cluster) {
		for i := range sc.arrivals {
			a := &sc.arrivals[i]
			cl.Scheduler().At(a.At, func() {
				txns[i] = cl.Begin(a.coordinator(func(s types.SiteID) bool { return !cl.Network().Down(s) }), a.Writeset)
			})
		}
	})
	cl.Scheduler().RunUntil(sim.Time(params.Horizon))
	out := make([]fate, len(txns))
	for i, txn := range txns {
		out[i].o = cl.GroupOutcome(txn, cl.Sites())
		out[i].at, _ = cl.FirstDecisionAt(txn)
	}
	return out
}

// scanPair steps b's arrival over (a.At, a.At+4T] by 100 µs, and a's
// over pinAt + 0, 1, … 9 ms, and returns the first world in which a and b
// are a pair and replay's fates satisfy want.
func scanPair(t *testing.T, name string, params Params, spec core.Spec, a, b arrival, want func(f []fate, a, b arrival) bool) *script {
	t.Helper()
	T := worldNet.MaxDelayOrDefault()
	for a.At = pinAt; a.At < pinAt.Add(10*sim.Millisecond); a.At = a.At.Add(sim.Millisecond) {
		for b.At = a.At.Add(100 * sim.Microsecond); b.At <= a.At.Add(4*T); b.At = b.At.Add(100 * sim.Microsecond) {
			sc := pairScript(a, b)
			if _, err := executeRunHybrid(sc, params, pinSeed, spec); err != nil {
				t.Fatal(err)
			}
			if sc.hybridPartner[0] == 1 && want(replayFates(sc, params, spec), a, b) {
				return sc
			}
		}
	}
	t.Fatalf("%s %s: no pair of arrivals gives the case", spec.Name(), name)
	return nil
}

func TestHybridFoldsPairs(t *testing.T) {
	T := worldNet.MaxDelayOrDefault()
	params := pinParams(sim.Time(sim.Second))
	committed := func(f fate) bool { return f.o == types.OutcomeCommitted }
	lost := func(f fate, at sim.Time) bool { return f.o == types.OutcomeAborted && f.at > at } // by a NO, not at Begin
	for _, spec := range StandardBuilders() {
		first := pairArrival(0, 1, "z")
		for _, tc := range []struct {
			name string
			a, b arrival
			want func(f []fate, a, b arrival) bool
		}{
			{"both solo", first, pairArrival(0, 4, "z"), func(f []fate, _, _ arrival) bool { return committed(f[0]) && committed(f[1]) }},
			{"second loses", first, pairArrival(0, 4, "z"), func(f []fate, _, b arrival) bool { return committed(f[0]) && lost(f[1], b.At) }},
			{"first loses", first, pairArrival(0, 4, "z"), func(f []fate, a, _ arrival) bool { return lost(f[0], a.At) && committed(f[1]) }},
			{"both lose", pairArrival(0, 1, "y"), pairArrival(0, 4, "y"), func(f []fate, a, b arrival) bool { return lost(f[0], a.At) && lost(f[1], b.At) }},
			{"Begin-time abort", first, pairArrival(0, 3, "z"), func(f []fate, _, b arrival) bool {
				return committed(f[0]) && f[1].o == types.OutcomeAborted && f[1].at == b.At
			}},
			// Alone, the second would abort at its vote deadline; it loses
			// to the first well before.
			{"unreachable-participant loser", first, pairArrival(0, 4, "z", "u"), func(f []fate, _, b arrival) bool {
				return committed(f[0]) && lost(f[1], b.At) && f[1].at < b.At.Add(T)
			}},
		} {
			sc := scanPair(t, tc.name, params, spec, tc.a, tc.b, tc.want)
			requireAnalytic(t, tc.name, sc, params, spec, 2)
			if tc.name != "second loses" {
				continue
			}
			// The horizon at the loser's NO landing, its first decision
			// record, and 1 ns before it.
			at := replayFates(sc, params, spec)[1].at
			for _, horizon := range []sim.Time{at, at - 1} {
				name := fmt.Sprintf("second loses, horizon %v after its NO", at-horizon)
				requireAnalytic(t, name, pairScript(sc.arrivals...), pinParams(horizon), spec, 2)
			}
		}
	}
}

// TestHybridPairRefusesTies pins the lock release boundary. The first writer
// also writes u, whose copy is down, so in every column it aborts at its
// vote deadline and its ABORT reaches site 3 at one instant, rel. A second
// writer whose VOTE-REQ lands there at rel−1 meets the lock and loses (the
// fold decides it); one that lands at rel ties with the release, which the
// fold leaves to replay.
func TestHybridPairRefusesTies(t *testing.T) {
	T := worldNet.MaxDelayOrDefault()
	params := pinParams(sim.Time(sim.Second))
	for shift := sim.Duration(0); shift < 10*sim.Millisecond; shift += sim.Millisecond {
		a := pairArrival(pinAt.Add(shift), 1, "z", "u")
		deadline := a.At.Add(2 * T)
		rel := deadline.Add(worldNet.Delay(pinSeed, 1, 3, deadline))
		// Second arrivals whose VOTE-REQ lands at site 3 at rel-1 and rel.
		var at [2]sim.Time
		for b := rel.Add(-T - 1); b <= rel; b++ {
			if d := b.Add(worldNet.Delay(pinSeed, 4, 3, b)) - rel; d == -1 || d == 0 {
				at[d+1] = b
			}
		}
		if at[0] == 0 || at[1] == 0 {
			continue // no such arrival for this release: try another
		}
		for _, spec := range StandardBuilders() {
			for k, want := range []int{2, 0} {
				sc := pairScript(a, pairArrival(at[k], 4, "z"))
				name := fmt.Sprintf("landing %d ns before the release", 1-k)
				requireAnalytic(t, name, sc, params, spec, want)
				if sc.hybridPartner[0] != 1 {
					t.Fatalf("%s %s: the two are not a pair", spec.Name(), name)
				}
				if f := replayFates(sc, params, spec); k == 0 && (f[1].o != types.OutcomeAborted || f[1].at != rel-1) {
					t.Errorf("%s %s: replay reads %+v, want an abort at the NO vote", spec.Name(), name, f[1])
				}
			}
		}
		return
	}
	t.Fatal("no first arrival has second arrivals landing at its release and 1 ns before")
}

// TestHybridPairRefusesEarlyAbort pins the refusal of a loser whose ABORT
// reaches a yes-voter before its VOTE-REQ: the second writer, coordinated
// by site 4, loses at site 3 and also writes v, whose copy at site 2 gets
// the ABORT first. Site 2 drops it (no context yet), then votes yes on the
// VOTE-REQ and holds v's lock until termination aborts the transaction, long
// after its plan end: a third writer of v, arriving just past that end, meets
// the lock and aborts. The pair and the third writer all replay. At a
// common site it depends on the vote: a second writer of y that loses at
// site 3, and whose VOTE-REQ reaches site 2 after its ABORT, votes yes there
// and holds y's lock when it lands outside the first writer's lock (the pair
// replays), and votes NO, holding nothing, when it lands inside it (the
// pair is folded).
func TestHybridPairRefusesEarlyAbort(t *testing.T) {
	T := worldNet.MaxDelayOrDefault()
	params := pinParams(sim.Time(sim.Second))
	at := func(from, to types.SiteID, sent sim.Time) sim.Time {
		return sent.Add(worldNet.Delay(pinSeed, from, to, sent))
	}
	for _, spec := range StandardBuilders() {
		for _, held := range []bool{true, false} {
			name := fmt.Sprintf("early ABORT at a common site, lock held %v", held)
			sc := scanPair(t, name, params, spec, pairArrival(0, 1, "y"), pairArrival(0, 4, "y"), func(f []fate, a, b arrival) bool {
				no := at(4, 3, b.At)
				decide := min(at(3, 4, no), b.At.Add(2*T))
				if f[1].o != types.OutcomeAborted || f[1].at != no || at(4, 2, decide) > at(4, 2, b.At) {
					return false
				}
				// Site 2 voted yes if a third writer of y, arriving past
				// both plan ends, meets its lock.
				sc := pairScript(a, b)
				if _, err := executeRunHybrid(sc, params, pinSeed, spec); err != nil {
					t.Fatal(err)
				}
				end := max(sc.hybridPlans[0].end, sc.hybridPlans[1].end)
				return held == (replayFates(pairScript(a, b, pairArrival(end+1, 4, "y")), params, spec)[2].o == types.OutcomeAborted)
			})
			want := 2
			if held {
				want = 0
			}
			requireAnalytic(t, name, sc, params, spec, want)
		}
	}
	for _, spec := range StandardBuilders() {
		sc := scanPair(t, "early ABORT", params, spec, pairArrival(0, 1, "z"), pairArrival(0, 4, "z", "v"), func(f []fate, _, b arrival) bool {
			no := at(4, 3, b.At)
			decide := min(at(3, 4, no), b.At.Add(2*T))
			return f[1].o == types.OutcomeAborted && f[1].at == no && at(4, 2, decide) <= at(4, 2, b.At)
		})
		requireAnalytic(t, "early ABORT", sc, params, spec, 0)
		third := pairScript(sc.arrivals[0], sc.arrivals[1], pairArrival(sc.hybridPlans[1].end+1, 4, "v"))
		requireAnalytic(t, "early ABORT, then a writer of v", third, params, spec, 0)
		if f := replayFates(third, params, spec); f[2].o != types.OutcomeAborted {
			t.Errorf("%s: the third writer reads %+v in replay, want it aborted by the held lock", spec.Name(), f[2])
		}
	}
}

// TestHybridPairGuardsTheSecondMember pins the intervening-writer guard: a
// third writer of the second member's item v (alone in its cluster) that
// arrives later than T before the first member could lock v's copy in the
// world after the probe at the first arrival, so the pair replays; one at
// exactly T before does not hold the fold back.
func TestHybridPairGuardsTheSecondMember(t *testing.T) {
	T := worldNet.MaxDelayOrDefault()
	params := pinParams(sim.Time(sim.Second))
	for _, spec := range StandardBuilders() {
		a := pairArrival(pinAt, 1, "z")
		var scripts [2]*script
	scan:
		for b := pinAt.Add(100 * sim.Microsecond); b <= pinAt.Add(4*T); b = b.Add(100 * sim.Microsecond) {
			for k, c := range []sim.Time{pinAt.Add(-T), pinAt.Add(-T + 1)} {
				sc := pairScript(pairArrival(c, 4, "v"), a, pairArrival(b, 4, "z", "v"))
				if _, err := executeRunHybrid(sc, params, pinSeed, spec); err != nil {
					t.Fatal(err)
				}
				if sc.hybridPartner[0] != soloCluster || sc.hybridPartner[1] != 2 {
					continue scan
				}
				scripts[k] = sc
			}
			break
		}
		if scripts[1] == nil {
			t.Fatalf("%s: no second arrival links to the first alone", spec.Name())
		}
		requireAnalytic(t, "third writer T before the first", scripts[0], params, spec, 3)
		requireAnalytic(t, "third writer inside T before the first", scripts[1], params, spec, 1)
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
			sc.hybridPartner = conflictClusters(sc.arrivals, sc.hybridPlans)
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
					if _, ok := h.classify(i, a, p); !ok {
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
// arrival's plan end; pin the chaining, the windowing and the partners
// directly.
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
	const solo, multi = soloCluster, multiCluster
	want := []int{multi, solo, multi, multi, 6, solo, 4, multi, multi, multi, solo, solo, solo}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clusters = %v, want %v", got, want)
	}
	if out := conflictClusters(nil, nil); len(out) != 0 {
		t.Errorf("empty stream produced %v", out)
	}
}

// FuzzHybridMatchesReplay drives the differential contract over fuzzed
// study shapes: seed, strategy, churn rates, arrival rate, partition churn
// on or off, the horizon, and the item count (4–128; DefaultParams' 4 items
// chain most conflicts into clusters of three or more, more items make
// pairs common).
func FuzzHybridMatchesReplay(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(1500), uint16(300), uint16(100), true, uint16(1500), uint8(4))
	f.Add(int64(99), uint8(1), uint16(800), uint16(150), uint16(40), false, uint16(1500), uint8(4))
	f.Add(int64(7), uint8(2), uint16(0), uint16(0), uint16(60), true, uint16(1500), uint8(4))
	f.Add(int64(-3), uint8(0), uint16(3000), uint16(900), uint16(25), false, uint16(1500), uint8(4))
	// Missing writes, site churn only: QC1 diverges (replay commits 2 of 9,
	// the hybrid 4) when the plan end is the decision's delivery hashed at
	// the decision bound instead of the bound plus one hop.
	f.Add(int64(-173), uint8(97), uint16(1305), uint16(409), uint16(225), false, uint16(1500), uint8(4))
	// Short horizons under dense arrivals, so many windows overhang the cut.
	f.Add(int64(5), uint8(0), uint16(1500), uint16(300), uint16(0), false, uint16(60), uint8(4))
	f.Add(int64(21), uint8(2), uint16(400), uint16(50), uint16(2), true, uint16(120), uint8(4))
	// Fast site churn without partitions: many crashes and restarts land in
	// windows, before and after the decision reaches their site.
	f.Add(int64(13), uint8(1), uint16(400), uint16(50), uint16(20), false, uint16(1500), uint8(4))
	f.Add(int64(34), uint8(0), uint16(400), uint16(50), uint16(10), false, uint16(1500), uint8(4))
	// Denser arrivals over 16 and 64 items: pairs, including pairs that
	// meet, with and without site and partition churn.
	f.Add(int64(1), uint8(0), uint16(1500), uint16(300), uint16(5), false, uint16(1500), uint8(16))
	f.Add(int64(8), uint8(1), uint16(0), uint16(0), uint16(2), false, uint16(1500), uint8(16))
	f.Add(int64(42), uint8(2), uint16(800), uint16(150), uint16(3), true, uint16(1500), uint8(64))
	f.Add(int64(-9), uint8(0), uint16(400), uint16(50), uint16(1), false, uint16(600), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, strat uint8, mttfMs, mttrMs, arrivalMs uint16, partitions bool, horizonMs uint16, items uint8) {
		params := DefaultParams()
		params.NumItems = 4 + int(items)%125
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
