package core

import (
	"testing"

	"qcommit/internal/protocoltest"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// ex1 builds the paper's Example 1/4 assignment: x at sites 1-4, y at 5-8,
// one vote per copy, r=2, w=3.
func ex1() *voting.Assignment {
	return voting.MustAssignment(
		voting.Uniform("x", 2, 3, 1, 2, 3, 4),
		voting.Uniform("y", 2, 3, 5, 6, 7, 8),
	)
}

// eightSites are the participants of the Example 1 transactions.
var eightSites = []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}

// compiled is s's rule for a transaction writing items under a at
// participants (nil: every site holding a copy of them).
func compiled(s Spec, a *voting.Assignment, items []types.ItemID, participants []types.SiteID) *quorumcalc.Quorums {
	if participants == nil {
		participants = a.Participants(items)
	}
	ws := make(types.Writeset, len(items))
	for i, x := range items {
		ws[i].Item = x
	}
	q := s.Rule(participants).Over(quorumcalc.NewFrame(a, ws, participants))
	return &q
}

// set is the participant set of sites under q's frame.
func set(q *quorumcalc.Quorums, sites ...types.SiteID) quorumcalc.Set {
	var s quorumcalc.Set
	for _, x := range sites {
		s.Add(q.Index(x))
	}
	return s
}

var (
	items = []types.ItemID{"x", "y"}
	tp1   = compiled(Spec{Variant: Protocol1}, ex1(), items, nil)
	tp2   = compiled(Spec{Variant: Protocol2}, ex1(), items, nil)
)

func TestTP1DecideTable(t *testing.T) {
	r := tp1
	q, w, pc, pa, c, a := types.StateInitial, types.StateWait, types.StatePC, types.StatePA, types.StateCommitted, types.StateAborted

	cases := []struct {
		name   string
		states map[types.SiteID]types.State
		want   quorumcalc.Verdict
	}{
		// Immediate commit: a committed participant exists.
		{"any C", map[types.SiteID]types.State{2: w, 5: c}, quorumcalc.VerdictCommit},
		// Immediate commit: PC sites alone hold w(x) votes for EVERY item:
		// x needs 3 of sites1-4, y needs 3 of sites5-8.
		{"PC full write quorum", map[types.SiteID]types.State{
			1: pc, 2: pc, 3: pc, 5: pc, 6: pc, 7: pc}, quorumcalc.VerdictCommit},
		// Immediate abort: aborted participant.
		{"any A", map[types.SiteID]types.State{2: w, 3: a}, quorumcalc.VerdictAbort},
		// Immediate abort: initial-state participant.
		{"any q", map[types.SiteID]types.State{2: w, 3: q}, quorumcalc.VerdictAbort},
		// Immediate abort: PA sites hold r(x) votes for SOME item.
		{"PA read quorum", map[types.SiteID]types.State{2: pa, 3: pa, 4: w}, quorumcalc.VerdictAbort},
		// Commit quorum possible: one PC + non-PA sites cover w for every item.
		{"try-commit", map[types.SiteID]types.State{
			1: w, 2: w, 3: w, 5: pc, 6: w, 7: w}, quorumcalc.VerdictTryCommit},
		// G1 of Example 4: sites 2,3 in W → abort quorum possible via x.
		{"Example4 G1 try-abort", map[types.SiteID]types.State{2: w, 3: w}, quorumcalc.VerdictTryAbort},
		// G3 of Example 4: sites 6,7,8 in W → abort quorum via y.
		{"Example4 G3 try-abort", map[types.SiteID]types.State{6: w, 7: w, 8: w}, quorumcalc.VerdictTryAbort},
		// G2 of Example 4: site5 PC + site4 W → nothing possible → block.
		{"Example4 G2 block", map[types.SiteID]types.State{4: w, 5: pc}, quorumcalc.VerdictBlock},
		// A single W site with 1 vote of x (r=2): block.
		{"lone W blocks", map[types.SiteID]types.State{2: w}, quorumcalc.VerdictBlock},
		// PC sites present but commit side impossible AND the PC site makes
		// the abort side unusable for x... site2 PC, sites3,4 W: non-PC
		// {3,4} has 2 votes of x ≥ r(x)=2 → try-abort.
		{"PC excluded from abort count", map[types.SiteID]types.State{
			2: pc, 3: w, 4: w}, quorumcalc.VerdictTryAbort},
	}
	for _, tc := range cases {
		if got := r.Decide(protocoltest.Tally(tc.states)); got != tc.want {
			t.Errorf("%s: Decide = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTP1Confirmations(t *testing.T) {
	r := tp1
	// Commit confirmation needs w(x) votes for every item.
	if r.Qc(set(r, 1, 2, 3)) {
		t.Error("x-only sites cannot confirm commit (no y votes)")
	}
	if !r.Qc(set(r, 1, 2, 3, 5, 6, 7)) {
		t.Error("3 x votes + 3 y votes should confirm commit")
	}
	// Abort confirmation needs r(x) votes for some item.
	if !r.Qa(set(r, 2, 3)) {
		t.Error("2 x votes should confirm abort")
	}
	if r.Qa(set(r, 4, 5)) {
		t.Error("1 x vote + 1 y vote confirm nothing (r=2 each)")
	}
}

func TestTP2DecideTable(t *testing.T) {
	r := tp2
	w, pc, pa := types.StateWait, types.StatePC, types.StatePA

	cases := []struct {
		name   string
		states map[types.SiteID]types.State
		want   quorumcalc.Verdict
	}{
		// Immediate commit: PC sites hold r(x) votes for SOME item (r=2).
		{"PC read quorum commits", map[types.SiteID]types.State{1: pc, 2: pc, 3: w}, quorumcalc.VerdictCommit},
		// Immediate abort: PA sites hold w(x) for EVERY item.
		{"PA full write quorum aborts", map[types.SiteID]types.State{
			1: pa, 2: pa, 3: pa, 5: pa, 6: pa, 7: pa}, quorumcalc.VerdictAbort},
		// Try-commit: one PC (too few votes for immediate commit) plus
		// non-PA W sites covering r(x)=2 for x via sites 3,4.
		{"try-commit via r-some", map[types.SiteID]types.State{3: w, 4: w, 5: pc}, quorumcalc.VerdictTryCommit},
		// TP2 on Example 1's G2 (site5 PC + site4 W): try-commit needs
		// non-PA sites with r(x) votes for some x, but {4,5} holds only one
		// vote of each item (r=2); the abort side needs w(x) for every item
		// from non-PC = {4} — impossible. G2 blocks under TP2 as well.
		{"G2 blocks under TP2 too", map[types.SiteID]types.State{4: w, 5: pc}, quorumcalc.VerdictBlock},
	}
	for _, tc := range cases {
		if got := r.Decide(protocoltest.Tally(tc.states)); got != tc.want {
			t.Errorf("%s: Decide = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTP2AbortSideUsesWriteQuorum(t *testing.T) {
	r := tp2
	w := types.StateWait
	// Example 4's G1 (sites 2,3 in W): TP2's abort side needs w(x) votes for
	// EVERY item from non-PC sites — {2,3} has 2 x votes (w=3) and 0 y votes
	// → block (TP1 aborted here; this is the r/w trade-off between the two).
	got := r.Decide(protocoltest.Tally(map[types.SiteID]types.State{2: w, 3: w}))
	if got != quorumcalc.VerdictBlock {
		t.Errorf("TP2 on Example4-G1 = %v, want block", got)
	}
	// But a partition holding w votes for all items can abort: sites 1,2,3
	// (3 x votes) + 5,6,7 (3 y votes).
	got = r.Decide(protocoltest.Tally(map[types.SiteID]types.State{
		1: w, 2: w, 3: w, 5: w, 6: w, 7: w}))
	if got != quorumcalc.VerdictTryAbort {
		t.Errorf("TP2 full-write-quorum partition = %v, want try-abort", got)
	}
}

// TestTP1TP2NoConflictingQuorumsProperty: the structural safety property —
// for ANY split of participants into PC-reporters and PA-reporters, it must
// never be possible that the commit side confirms with the PC set while the
// abort side confirms with the PA set, because PC sites refuse
// PREPARE-TO-ABORT and vice versa (sets are disjoint). This is Lemma 1/2's
// vote-arithmetic core: w(x)-every over S1 and r(x)-some over S2 with S1,S2
// disjoint would need w(x)+r(x) > v(x) votes for that x.
func TestTP1TP2NoConflictingQuorumsProperty(t *testing.T) {
	all := []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
	for mask := 0; mask < 1<<8; mask++ {
		var s1, s2 []types.SiteID
		for i, s := range all {
			if mask&(1<<i) != 0 {
				s1 = append(s1, s)
			} else {
				s2 = append(s2, s)
			}
		}
		if tp1.Qc(set(tp1, s1...)) && tp1.Qa(set(tp1, s2...)) {
			t.Fatalf("TP1: disjoint commit (%v) and abort (%v) quorums", s1, s2)
		}
		if tp2.Qc(set(tp2, s1...)) && tp2.Qa(set(tp2, s2...)) {
			t.Fatalf("TP2: disjoint commit (%v) and abort (%v) quorums", s1, s2)
		}
	}
}
