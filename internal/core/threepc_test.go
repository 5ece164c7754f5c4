package core

import (
	"testing"

	"qcommit/internal/protocoltest"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/threephase"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// Skeen's three-phase commit: the ThreePC variant and its site-failure rule.

func threePCAsgn() *voting.Assignment {
	return voting.MustAssignment(voting.Uniform("x", 2, 3, 1, 2, 3, 4))
}

func TestRulesDecide(t *testing.T) {
	r := compiled(Spec{Variant: ThreePC}, nil, nil, eightSites)
	q, w, pc, c, a := types.StateInitial, types.StateWait, types.StatePC, types.StateCommitted, types.StateAborted

	cases := []struct {
		name   string
		states map[types.SiteID]types.State
		want   quorumcalc.Verdict
	}{
		{"committed present", map[types.SiteID]types.State{2: w, 3: c}, quorumcalc.VerdictCommit},
		{"aborted present", map[types.SiteID]types.State{2: w, 3: a}, quorumcalc.VerdictAbort},
		{"PC present commits", map[types.SiteID]types.State{2: w, 3: pc}, quorumcalc.VerdictTryCommit},
		{"all W aborts", map[types.SiteID]types.State{2: w, 3: w}, quorumcalc.VerdictAbort},
		{"q aborts", map[types.SiteID]types.State{2: q}, quorumcalc.VerdictAbort},
	}
	for _, tc := range cases {
		if got := r.Decide(protocoltest.Tally(tc.states)); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
	// The site-failure termination protocol never demands quorums: any
	// confirmation succeeds.
	if !r.Qc(set(r)) || !r.Qa(set(r)) {
		t.Error("3PC termination must confirm unconditionally")
	}
}

// TestRulesAreInconsistentUnderPartition documents WHY Example 2 happens:
// two disjoint partitions of one interrupted run (one holding the PC site,
// one not) get opposite verdicts.
func TestRulesAreInconsistentUnderPartition(t *testing.T) {
	r := compiled(Spec{Variant: ThreePC}, nil, nil, eightSites)
	w, pc := types.StateWait, types.StatePC
	gWithPC := r.Decide(protocoltest.Tally(map[types.SiteID]types.State{4: w, 5: pc}))
	gWithout := r.Decide(protocoltest.Tally(map[types.SiteID]types.State{2: w, 3: w}))
	if gWithPC != quorumcalc.VerdictTryCommit || gWithout != quorumcalc.VerdictAbort {
		t.Errorf("verdicts = %v/%v, want try-commit/abort (the Example 2 split)", gWithPC, gWithout)
	}
}

func TestSpecConstruction(t *testing.T) {
	s := Spec{Variant: ThreePC}
	if s.Name() != "3PC" {
		t.Errorf("name = %q", s.Name())
	}
	ws := types.Writeset{{Item: "x", Value: 1}}
	parts := []types.SiteID{1, 2}
	if s.NewCoordinator(1, ws, parts) == nil || s.NewParticipant(1, nil) == nil ||
		threephase.NewTerminator(1, ws, parts, 0, &quorumcalc.Quorums{Rule: s.Rule(parts)}) == nil {
		t.Error("spec returned nil automata")
	}
}
