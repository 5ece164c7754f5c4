package engine

import (
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// paperAssignment is the replication layout of the paper's Example 1:
// item x with single-vote copies at sites 1-4, item y at sites 5-8,
// r = 2 and w = 3 for both.
func paperAssignment(t testing.TB) *voting.Assignment {
	t.Helper()
	a, err := voting.NewAssignment(
		voting.Uniform("x", 2, 3, 1, 2, 3, 4),
		voting.Uniform("y", 2, 3, 5, 6, 7, 8),
	)
	if err != nil {
		t.Fatalf("assignment: %v", err)
	}
	return a
}

func allSpecs() []core.Spec {
	sites := []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
	return []core.Spec{
		{Variant: core.TwoPC},
		{Variant: core.ThreePC},
		core.Uniform(sites, 5, 4),
		{Variant: core.Protocol1},
		{Variant: core.Protocol2},
	}
}

// TestNewRejectsInvalidSpec: New refuses a spec that fails Validate — an
// unknown Variant, which would otherwise run as QC1, and a SkeenQ spec whose
// quorums do not intersect (Vc+Va ≤ V) — as it refuses a bad Strategy.
func TestNewRejectsInvalidSpec(t *testing.T) {
	sites := []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, spec := range []core.Spec{{Variant: 9}, core.Uniform(sites, 4, 4)} {
		t.Run(spec.Name(), func(t *testing.T) {
			want := "engine: Config.Spec: " + spec.Validate().Error()
			defer func() {
				if r := recover(); r != want {
					t.Errorf("panic = %v, want %q", r, want)
				}
			}()
			New(Config{Seed: 1, Assignment: paperAssignment(t), Spec: spec})
		})
	}
}

func TestFailureFreeCommitAllProtocols(t *testing.T) {
	for _, spec := range allSpecs() {
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			cl := New(Config{Seed: 1, Assignment: paperAssignment(t), Spec: spec})
			ws := types.Writeset{{Item: "x", Value: 42}, {Item: "y", Value: 7}}
			txn := cl.Begin(1, ws)
			cl.Run()

			for _, id := range cl.Sites() {
				if got := cl.OutcomeAt(id, txn); got != types.OutcomeCommitted {
					t.Errorf("site%d outcome = %v, want committed", id, got)
				}
			}
			if v := cl.Violations(); len(v) != 0 {
				t.Errorf("violations: %v", v)
			}
			// The committed values must be applied at every copy.
			for _, id := range []types.SiteID{1, 2, 3, 4} {
				got, err := cl.Site(id).Store().Read("x")
				if err != nil || got.Value != 42 {
					t.Errorf("site%d x = %+v err=%v, want 42", id, got, err)
				}
			}
			for _, id := range []types.SiteID{5, 6, 7, 8} {
				got, err := cl.Site(id).Store().Read("y")
				if err != nil || got.Value != 7 {
					t.Errorf("site%d y = %+v err=%v, want 7", id, got, err)
				}
			}
			// All locks must be released.
			for _, id := range cl.Sites() {
				if items := cl.Site(id).Locks().HeldItems(txn); len(items) != 0 {
					t.Errorf("site%d still holds locks %v", id, items)
				}
			}
		})
	}
}

func TestNoVoteAbortsAllProtocols(t *testing.T) {
	for _, spec := range allSpecs() {
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			cl := New(Config{Seed: 2, Assignment: paperAssignment(t), Spec: spec})
			cl.Site(3).RefuseVotes(true)
			ws := types.Writeset{{Item: "x", Value: 42}, {Item: "y", Value: 7}}
			txn := cl.Begin(1, ws)
			cl.Run()

			for _, id := range cl.Sites() {
				if got := cl.OutcomeAt(id, txn); got != types.OutcomeAborted {
					t.Errorf("site%d outcome = %v, want aborted", id, got)
				}
			}
			if v := cl.Violations(); len(v) != 0 {
				t.Errorf("violations: %v", v)
			}
			// No value may have been applied anywhere.
			for _, id := range []types.SiteID{1, 2, 3, 4} {
				got, _ := cl.Site(id).Store().Read("x")
				if got.Value != 0 {
					t.Errorf("site%d x = %d, want 0 (aborted)", id, got.Value)
				}
			}
		})
	}
}

// TestExample1SkeenBlocksEverywhere reproduces the paper's Example 1: under
// Skeen's quorum protocol (votes 1 each, Vc=5, Va=4), coordinator site1
// crashes and the network splits into G1={1,2,3}, G2={4,5}, G3={6,7,8} with
// site5 in PC and all other participants in W. No partition holds either
// quorum, so the transaction blocks in all partitions.
func TestExample1SkeenBlocksEverywhere(t *testing.T) {
	sites := []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
	cl := New(Config{Seed: 3, Assignment: paperAssignment(t), Spec: core.Uniform(sites, 5, 4)})
	ws := types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}}
	txn := cl.SetupInterrupted(1, ws, map[types.SiteID]types.State{
		1: types.StateWait, 2: types.StateWait, 3: types.StateWait, 4: types.StateWait,
		5: types.StatePC,
		6: types.StateWait, 7: types.StateWait, 8: types.StateWait,
	})
	cl.Crash(1)
	cl.Partition([]types.SiteID{1, 2, 3}, []types.SiteID{4, 5}, []types.SiteID{6, 7, 8})
	cl.Run()

	for _, id := range []types.SiteID{2, 3, 4, 5, 6, 7, 8} {
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeBlocked {
			t.Errorf("site%d outcome = %v, want blocked", id, got)
		}
	}
	if v := cl.Violations(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}

// TestExample4TP1ImprovesAvailability reproduces Example 4: same scenario as
// Example 1 but under the paper's termination protocol 1. Partitions G1 and
// G3 satisfy TP1's abort quorum, so the transaction aborts there (and the
// data items become accessible again); G2 still blocks.
func TestExample4TP1ImprovesAvailability(t *testing.T) {
	cl := New(Config{Seed: 4, Assignment: paperAssignment(t), Spec: core.Spec{Variant: core.Protocol1}})
	ws := types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}}
	txn := cl.SetupInterrupted(1, ws, map[types.SiteID]types.State{
		1: types.StateWait, 2: types.StateWait, 3: types.StateWait, 4: types.StateWait,
		5: types.StatePC,
		6: types.StateWait, 7: types.StateWait, 8: types.StateWait,
	})
	cl.Crash(1)
	cl.Partition([]types.SiteID{1, 2, 3}, []types.SiteID{4, 5}, []types.SiteID{6, 7, 8})
	cl.Run()

	for _, id := range []types.SiteID{2, 3} { // G1 aborts
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeAborted {
			t.Errorf("G1 site%d outcome = %v, want aborted", id, got)
		}
	}
	for _, id := range []types.SiteID{6, 7, 8} { // G3 aborts
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeAborted {
			t.Errorf("G3 site%d outcome = %v, want aborted", id, got)
		}
	}
	for _, id := range []types.SiteID{4, 5} { // G2 blocks
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeBlocked {
			t.Errorf("G2 site%d outcome = %v, want blocked", id, got)
		}
	}
	if v := cl.Violations(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
	// Locks released in G1: x is readable there (2 votes ≥ r=2).
	for _, id := range []types.SiteID{2, 3} {
		if items := cl.Site(id).Locks().HeldItems(txn); len(items) != 0 {
			t.Errorf("G1 site%d still locked: %v", id, items)
		}
	}
}

// TestExample2ThreePCInconsistent reproduces Example 2: the same interrupted
// scenario terminated by 3PC's site-failure-only termination protocol splits
// the decision — G2 (which contains the PC site) commits while G1 and G3
// abort.
func TestExample2ThreePCInconsistent(t *testing.T) {
	cl := New(Config{Seed: 5, Assignment: paperAssignment(t), Spec: core.Spec{Variant: core.ThreePC}})
	ws := types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}}
	txn := cl.SetupInterrupted(1, ws, map[types.SiteID]types.State{
		1: types.StateWait, 2: types.StateWait, 3: types.StateWait, 4: types.StateWait,
		5: types.StatePC,
		6: types.StateWait, 7: types.StateWait, 8: types.StateWait,
	})
	cl.Crash(1)
	cl.Partition([]types.SiteID{1, 2, 3}, []types.SiteID{4, 5}, []types.SiteID{6, 7, 8})
	cl.Run()

	for _, id := range []types.SiteID{2, 3, 6, 7, 8} {
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeAborted {
			t.Errorf("site%d outcome = %v, want aborted", id, got)
		}
	}
	for _, id := range []types.SiteID{4, 5} {
		if got := cl.OutcomeAt(id, txn); got != types.OutcomeCommitted {
			t.Errorf("site%d outcome = %v, want committed", id, got)
		}
	}
	if v := cl.Violations(); len(v) == 0 {
		t.Error("expected an atomicity violation to be reported (that is Example 2's point)")
	}
}
