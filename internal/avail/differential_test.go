package avail

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/types"
)

// differentialParamSets are the scenario-parameter grid of the analytic-vs-
// replay differential suite, chosen to hit the structural edges: the
// defaults, full replication (CopiesPerItem == NumSites, every site is a
// participant), sparse replication with a wide writeset, pure vote-phase
// cuts (VotePhasePct 100, q states guaranteed possible) and pure PC-phase
// cuts (VotePhasePct 0, no q states ever), plus maximal fragmentation.
var differentialParamSets = []ScenarioParams{
	DefaultScenarioParams(),
	{NumSites: 6, NumItems: 3, CopiesPerItem: 6, ItemsPerTxn: 2, MaxGroups: 4, VotePhasePct: 50},
	{NumSites: 8, NumItems: 4, CopiesPerItem: 3, ItemsPerTxn: 4, MaxGroups: 5, VotePhasePct: 0},
	{NumSites: 5, NumItems: 2, CopiesPerItem: 2, ItemsPerTxn: 1, MaxGroups: 2, VotePhasePct: 100},
}

// weightedSkeen is Skeen's protocol with non-uniform site votes (1, 2 or 3
// by site number) over the scenario's participants and the tightest majority
// quorums over their total — the column that exercises the weighted sum in
// quorumcalc.SkeenRule, which the standard one-vote-per-site column cannot.
func weightedSkeen(sc Scenario) core.Spec {
	votes := make(map[types.SiteID]int, len(sc.Participants))
	total := 0
	for _, s := range sc.Participants {
		votes[s] = 1 + int(s)%3
		total += votes[s]
	}
	vc, va := core.Majority(total)
	return core.Spec{Variant: core.SkeenQ, Votes: votes, Vc: vc, Va: va}
}

func differentialBuilders() []SpecBuilder {
	return append(StandardBuilders(), SpecBuilder{Label: "SkeenQ-weighted", Build: weightedSkeen})
}

// assertEngineAgreement replays one scenario under every standard protocol
// (and weighted Skeen) with both engines and fails on any Counts or
// violation-count divergence.
func assertEngineAgreement(t *testing.T, sc Scenario, label string) {
	t.Helper()
	for _, b := range differentialBuilders() {
		spec := b.Build(sc)
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s %s: %v", label, b.Label, err)
		}
		rep, violations := Replay(sc, spec)
		wantCounts, wantViol := rep.Tally(), len(violations)
		gotCounts, gotViol := AnalyzeAnalytic(sc, spec)
		if !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Errorf("%s %s: analytic counts diverge\nreplay   %+v\nanalytic %+v\nstates %v partition %v coord %v writeset %v",
				label, b.Label, wantCounts, gotCounts, sc.States, sc.Partition, sc.Coord, sc.Writeset)
		}
		if gotViol != wantViol {
			t.Errorf("%s %s: analytic violations = %d, replay = %d (%v)",
				label, b.Label, gotViol, wantViol, violations)
		}
	}
}

// TestAnalyticMatchesReplayGrid is the tentpole contract: over a grid of
// seeds × all five protocols × edge-case scenario parameters, the analytic
// engine's Counts are bit-identical to full engine replay, and it reports
// exactly the replay's violation count. The simulator stays the oracle; the
// analytic path must never drift from it.
func TestAnalyticMatchesReplayGrid(t *testing.T) {
	for pi, params := range differentialParamSets {
		gen, err := NewScenarioGen(params)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 50; seed++ {
			sc, err := gen.Generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			assertEngineAgreement(t, sc, fmt.Sprintf("params%d/seed%d", pi, seed))
		}
	}
}

// TestAnalyticMatchesReplayRandomParams is the fuzz-style variant: scenario
// parameters themselves are drawn at random (within validity bounds) and a
// few seeds are differentially checked for each draw.
func TestAnalyticMatchesReplayRandomParams(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for i := 0; i < 40; i++ {
		params := ScenarioParams{
			NumSites:     2 + rng.Intn(9), // 2..10
			NumItems:     1 + rng.Intn(5), // 1..5
			MaxGroups:    2 + rng.Intn(4), // 2..5
			VotePhasePct: rng.Intn(101),
		}
		params.CopiesPerItem = 1 + rng.Intn(params.NumSites) // 1..NumSites
		params.ItemsPerTxn = 1 + rng.Intn(params.NumItems)   // 1..NumItems
		gen, err := NewScenarioGen(params)
		if err != nil {
			t.Fatalf("params %+v: %v", params, err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			sc, err := gen.Generate(seed)
			if err != nil {
				t.Fatalf("params %+v seed %d: %v", params, seed, err)
			}
			assertEngineAgreement(t, sc, fmt.Sprintf("rand%d/seed%d", i, seed))
		}
	}
}

// FuzzAnalyticMatchesReplay lets the native fuzzer explore the
// (params, seed) space beyond the fixed grid; `go test` runs the seed corpus
// as a regression suite.
func FuzzAnalyticMatchesReplay(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(4), uint8(4), uint8(2), uint8(3), uint8(25))
	f.Add(int64(17), uint8(6), uint8(6), uint8(3), uint8(3), uint8(4), uint8(100))
	f.Add(int64(33), uint8(5), uint8(2), uint8(2), uint8(1), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, sites, copies, items, writes, groups, votePct uint8) {
		params := ScenarioParams{
			NumSites:      int(sites),
			NumItems:      int(items),
			CopiesPerItem: int(copies),
			ItemsPerTxn:   int(writes),
			MaxGroups:     int(groups),
			VotePhasePct:  int(votePct),
		}
		if params.NumSites > 12 || params.NumItems > 6 {
			t.Skip("keep replay cost bounded")
		}
		sc, err := GenerateScenario(params, seed)
		if err != nil {
			t.Skip("invalid params")
		}
		assertEngineAgreement(t, sc, "fuzz")
	})
}

// TestAnalyticResidualGroup covers hand-built scenarios whose Partition
// does not list every replica-holding site: simnet lumps unlisted sites
// into an implicit residual group, and the analytic engine must model that
// population rather than treating those sites as down.
func TestAnalyticResidualGroup(t *testing.T) {
	params := DefaultScenarioParams()
	for seed := int64(1); seed <= 20; seed++ {
		sc, err := GenerateScenario(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Drop the last partition group: its sites (participants included)
		// now belong to the residual group.
		sc.Partition = sc.Partition[:len(sc.Partition)-1]
		assertEngineAgreement(t, sc, fmt.Sprintf("residual/seed%d", seed))
	}
	// Degenerate cut: no partition groups listed at all — every up site
	// lands in one residual group.
	sc, err := GenerateScenario(params, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc.Partition = nil
	assertEngineAgreement(t, sc, "residual/none")
}

// TestMonteCarloEnginesMatch checks the aggregated sweep: both engines,
// serial and parallel, produce identical MCResult slices.
func TestMonteCarloEnginesMatch(t *testing.T) {
	params := DefaultScenarioParams()
	builders := differentialBuilders()
	const trials = 80
	want, err := MonteCarlo(params, trials, 11, builders, EngineReplay)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MonteCarlo(params, trials, 11, builders, EngineAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("serial analytic diverged from serial replay\ngot  %+v\nwant %+v", got, want)
	}
	for _, workers := range []int{2, 5} {
		gotPar, err := MonteCarloParallel(params, trials, 11, builders,
			MCOptions{Workers: workers, Engine: EngineAnalytic})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotPar, want) {
			t.Errorf("parallel analytic (workers=%d) diverged from replay\ngot  %+v\nwant %+v", workers, gotPar, want)
		}
	}
}
