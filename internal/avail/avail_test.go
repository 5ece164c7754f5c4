package avail

import (
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/engine"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

func example1Cluster(t *testing.T, specName string) (*engine.Cluster, types.TxnID) {
	t.Helper()
	asgn := voting.MustAssignment(
		voting.Uniform("x", 2, 3, 1, 2, 3, 4),
		voting.Uniform("y", 2, 3, 5, 6, 7, 8),
	)
	var cl *engine.Cluster
	switch specName {
	case "SkeenQ":
		cl = engine.New(engine.Config{Seed: 1, Assignment: asgn,
			Spec: core.Uniform([]types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}, 5, 4)})
	case "QC1":
		cl = engine.New(engine.Config{Seed: 1, Assignment: asgn, Spec: core.Spec{Variant: core.Protocol1}})
	default:
		t.Fatalf("unknown spec %q", specName)
	}
	ws := types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}}
	txn := cl.SetupInterrupted(1, ws, map[types.SiteID]types.State{
		1: types.StateWait, 2: types.StateWait, 3: types.StateWait, 4: types.StateWait,
		5: types.StatePC,
		6: types.StateWait, 7: types.StateWait, 8: types.StateWait,
	})
	cl.Crash(1)
	cl.Partition([]types.SiteID{1, 2, 3}, []types.SiteID{4, 5}, []types.SiteID{6, 7, 8})
	cl.Run()
	return cl, txn
}

// TestExample1Accessibility checks the availability table of Example 1:
// under Skeen's quorum protocol every partition blocks, so x and y are
// inaccessible everywhere even though G1 has enough votes to read x and G3
// enough votes to write y.
func TestExample1Accessibility(t *testing.T) {
	cl, txn := example1Cluster(t, "SkeenQ")
	rep := Analyze(cl, txn)

	for _, g := range rep.Groups {
		if g.Outcome != types.OutcomeBlocked {
			t.Errorf("group %v outcome = %v, want blocked", g.Sites, g.Outcome)
		}
		for _, ia := range g.Items {
			if ia.VotesPresent == 0 {
				continue
			}
			if ia.Readable || ia.Writable {
				t.Errorf("group %d item %s accessible (r=%v w=%v), want inaccessible under SkeenQ",
					g.Group, ia.Item, ia.Readable, ia.Writable)
			}
		}
	}
	c := rep.Tally()
	if c.Terminated != 0 || c.Blocked != 3 {
		t.Errorf("tally = %+v, want 0 terminated / 3 blocked", c)
	}
}

// TestExample4Accessibility checks Example 4: under termination protocol 1
// G1 and G3 abort, making x readable in G1 (2 free votes ≥ r=2) and y
// writable in G3 (3 free votes ≥ w=3). G2 still blocks.
func TestExample4Accessibility(t *testing.T) {
	cl, txn := example1Cluster(t, "QC1")
	rep := Analyze(cl, txn)

	find := func(group int, item types.ItemID) ItemAccess {
		for _, g := range rep.Groups {
			if g.Group != group {
				continue
			}
			for _, ia := range g.Items {
				if ia.Item == item {
					return ia
				}
			}
		}
		t.Fatalf("no access entry for group %d item %s", group, item)
		return ItemAccess{}
	}

	// Group 0 = {site1(down), site2, site3}: x readable, not writable.
	x1 := find(0, "x")
	if !x1.Readable || x1.Writable {
		t.Errorf("G1 x: readable=%v writable=%v, want readable only (votes free=%d)", x1.Readable, x1.Writable, x1.VotesFree)
	}
	// Group 1 = {site4, site5}: blocked, x inaccessible.
	x2 := find(1, "x")
	if x2.Readable || x2.Writable {
		t.Errorf("G2 x: readable=%v writable=%v, want inaccessible", x2.Readable, x2.Writable)
	}
	// Group 2 = {site6, site7, site8}: y writable (3 ≥ w=3).
	y3 := find(2, "y")
	if !y3.Writable {
		t.Errorf("G3 y: writable=%v (free=%d), want writable", y3.Writable, y3.VotesFree)
	}
}

// TestMonteCarloOrdering runs the availability sweep and asserts the
// paper's comparative claims hold in aggregate: the paper's protocols
// terminate at least as often as Skeen's quorum protocol, which beats 2PC;
// and QC1/QC2 never violate atomicity while 3PC (under partitions) does.
func TestMonteCarloOrdering(t *testing.T) {
	results, err := MonteCarlo(DefaultScenarioParams(), 60, 12345, StandardBuilders(), EngineReplay)
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	byLabel := make(map[string]MCResult, len(results))
	for _, r := range results {
		byLabel[r.Label] = r
	}
	qc1 := byLabel["QC1"].Counts.TerminationRate()
	qc2 := byLabel["QC2"].Counts.TerminationRate()
	skq := byLabel["SkeenQ"].Counts.TerminationRate()
	twoPC := byLabel["2PC"].Counts.TerminationRate()

	if qc1 < skq {
		t.Errorf("QC1 termination rate %.3f < SkeenQ %.3f, paper claims the opposite", qc1, skq)
	}
	if qc2 < skq {
		t.Errorf("QC2 termination rate %.3f < SkeenQ %.3f, paper claims the opposite", qc2, skq)
	}
	if skq < twoPC {
		t.Errorf("SkeenQ termination rate %.3f < 2PC %.3f, unexpected", skq, twoPC)
	}
	for _, label := range []string{"2PC", "SkeenQ", "QC1", "QC2"} {
		if v := byLabel[label].Violations; v != 0 {
			t.Errorf("%s produced %d atomicity violations, want 0", label, v)
		}
	}
	if byLabel["3PC"].Violations == 0 {
		t.Logf("note: 3PC produced no violations in this sample (possible but unusual)")
	}
	t.Logf("\n%s", FormatMCTable(results))
}

// TestMonteCarloStress runs a larger randomized sweep with full correctness
// auditing (atomicity + store consistency on every replay); skipped in
// -short mode.
func TestMonteCarloStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep skipped in -short mode")
	}
	params := ScenarioParams{
		NumSites: 10, NumItems: 5, CopiesPerItem: 5,
		ItemsPerTxn: 3, MaxGroups: 4, VotePhasePct: 30,
	}
	results, err := MonteCarlo(params, 150, 777, StandardBuilders(), EngineReplay)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Label == "3PC" {
			continue // expected to violate under partitions
		}
		if r.Violations != 0 {
			t.Errorf("%s: %d violations across stress sweep", r.Label, r.Violations)
		}
	}
	byLabel := make(map[string]MCResult)
	for _, r := range results {
		byLabel[r.Label] = r
	}
	if byLabel["QC2"].Counts.TerminationRate() < byLabel["SkeenQ"].Counts.TerminationRate() {
		t.Error("QC2 lost to SkeenQ at 10-site scale")
	}
	t.Logf("\n%s", FormatMCTable(results))
}
