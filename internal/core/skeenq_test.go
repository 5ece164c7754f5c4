package core

import (
	"slices"
	"testing"

	"qcommit/internal/protocoltest"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
)

// Skeen's quorum-based commit protocol: the SkeenQ variant over site votes.

func skeenEx1() Spec {
	// Example 1's configuration: one vote per site, Vc=5, Va=4 (Vc+Va=9 > 8).
	return Uniform([]types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}, 5, 4)
}

func TestValidate(t *testing.T) {
	if err := skeenEx1().Validate(); err != nil {
		t.Errorf("Example 1 spec invalid: %v", err)
	}
	bad := Uniform([]types.SiteID{1, 2, 3, 4}, 2, 2) // 2+2 = 4 = V
	if err := bad.Validate(); err == nil {
		t.Error("Vc+Va = V accepted")
	}
	if err := (Spec{Variant: SkeenQ, Votes: map[types.SiteID]int{1: 1}, Vc: 0, Va: 2}).Validate(); err == nil {
		t.Error("zero quorum accepted")
	}
	if err := (Spec{Variant: SkeenQ, Votes: map[types.SiteID]int{1: -1}, Vc: 1, Va: 1}).Validate(); err == nil {
		t.Error("negative votes accepted")
	}
	// Site votes and quorums belong to SkeenQ alone; the other variants
	// refuse them instead of ignoring them.
	for _, v := range []Variant{0, Protocol1, Protocol2, ThreePC, TwoPC} {
		if err := (Spec{Variant: v}).Validate(); err != nil {
			t.Errorf("%v without site votes refused: %v", v, err)
		}
		if err := (Spec{Variant: v, Votes: skeenEx1().Votes}).Validate(); err == nil {
			t.Errorf("%v with site votes accepted", v)
		}
		if err := (Spec{Variant: v, Vc: 5, Va: 4}).Validate(); err == nil {
			t.Errorf("%v with site quorums accepted", v)
		}
	}
	// A Variant outside the five fails and is named after no protocol; only
	// the zero value defaults to QC1.
	for _, v := range []Variant{-1, 6, 99} {
		s := Spec{Variant: v}
		if err := s.Validate(); err == nil || slices.Contains(names[:], s.Name()) {
			t.Errorf("variant %d: Validate = %v, Name = %q; want an error and no protocol's name", int(v), err, s.Name())
		}
	}
	if err := (Spec{}).Validate(); err != nil || (Spec{}).Name() != "QC1" {
		t.Errorf("zero Spec: %q, %v; want a valid QC1", (Spec{}).Name(), err)
	}
}

func TestRulesDecideExample1Partitions(t *testing.T) {
	r := compiled(skeenEx1(), nil, nil, eightSites)
	w, pc := types.StateWait, types.StatePC

	// G1 = {2,3} both W: 2 votes < Va=4 and < Vc=5 → block.
	if got := r.Decide(protocoltest.Tally(map[types.SiteID]types.State{2: w, 3: w})); got != quorumcalc.VerdictBlock {
		t.Errorf("G1 = %v, want block", got)
	}
	// G2 = {4 W, 5 PC}: 2 votes → block.
	if got := r.Decide(protocoltest.Tally(map[types.SiteID]types.State{4: w, 5: pc})); got != quorumcalc.VerdictBlock {
		t.Errorf("G2 = %v, want block", got)
	}
	// G3 = {6,7,8} all W: 3 votes < 4 → block.
	if got := r.Decide(protocoltest.Tally(map[types.SiteID]types.State{6: w, 7: w, 8: w})); got != quorumcalc.VerdictBlock {
		t.Errorf("G3 = %v, want block", got)
	}
}

func TestRulesQuorumPaths(t *testing.T) {
	r := compiled(skeenEx1(), nil, nil, eightSites)
	w, pc, pa := types.StateWait, types.StatePC, types.StatePA

	// 4 non-PC sites ≥ Va=4 → try-abort.
	got := r.Decide(protocoltest.Tally(map[types.SiteID]types.State{
		2: w, 3: w, 4: w, 6: w}))
	if got != quorumcalc.VerdictTryAbort {
		t.Errorf("4 W sites = %v, want try-abort", got)
	}
	// 5 non-PA sites with one PC ≥ Vc=5 → try-commit.
	got = r.Decide(protocoltest.Tally(map[types.SiteID]types.State{
		2: w, 3: w, 4: w, 5: pc, 6: w}))
	if got != quorumcalc.VerdictTryCommit {
		t.Errorf("5 sites with PC = %v, want try-commit", got)
	}
	// PA sites with Va votes → immediate abort.
	got = r.Decide(protocoltest.Tally(map[types.SiteID]types.State{
		2: pa, 3: pa, 4: pa, 6: pa, 7: w}))
	if got != quorumcalc.VerdictAbort {
		t.Errorf("4 PA sites = %v, want abort", got)
	}
	// PC sites with Vc votes → immediate commit.
	got = r.Decide(protocoltest.Tally(map[types.SiteID]types.State{
		2: pc, 3: pc, 4: pc, 5: pc, 6: pc, 7: w}))
	if got != quorumcalc.VerdictCommit {
		t.Errorf("5 PC sites = %v, want commit", got)
	}
	// Initial state present → immediate abort.
	got = r.Decide(protocoltest.Tally(map[types.SiteID]types.State{
		2: types.StateInitial, 3: w}))
	if got != quorumcalc.VerdictAbort {
		t.Errorf("q present = %v, want abort", got)
	}
}

func TestConfirmations(t *testing.T) {
	r := compiled(skeenEx1(), nil, nil, eightSites)
	if r.Qc(set(r, 1, 2, 3, 4)) {
		t.Error("4 votes should not confirm commit (Vc=5)")
	}
	if !r.Qc(set(r, 1, 2, 3, 4, 5)) {
		t.Error("5 votes should confirm commit")
	}
	if !r.Qa(set(r, 1, 2, 3, 4)) {
		t.Error("4 votes should confirm abort (Va=4)")
	}
	if r.Qa(set(r, 1, 2, 3)) {
		t.Error("3 votes should not confirm abort")
	}
}

// TestNoDisjointQuorums: with Vc+Va > V, a commit quorum and an abort quorum
// can never be assembled from disjoint site sets.
func TestNoDisjointQuorums(t *testing.T) {
	spec := skeenEx1()
	r := compiled(spec, nil, nil, eightSites)
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
		if r.Qc(set(r, s1...)) && r.Qa(set(r, s2...)) {
			t.Fatalf("disjoint quorums: commit=%v abort=%v", s1, s2)
		}
	}
}

func TestWeightedVotes(t *testing.T) {
	// Give site1 weight 3: it alone can veto an abort quorum.
	spec := Spec{Variant: SkeenQ, Votes: map[types.SiteID]int{1: 3, 2: 1, 3: 1}, Vc: 3, Va: 3}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	r := compiled(spec, nil, nil, eightSites)
	got := r.Decide(protocoltest.Tally(map[types.SiteID]types.State{
		1: types.StateWait}))
	if got != quorumcalc.VerdictTryAbort {
		t.Errorf("site1 alone (3 votes) = %v, want try-abort", got)
	}
	got = r.Decide(protocoltest.Tally(map[types.SiteID]types.State{
		2: types.StateWait, 3: types.StateWait}))
	if got != quorumcalc.VerdictBlock {
		t.Errorf("sites 2,3 (2 votes) = %v, want block", got)
	}
}

// TestPerTransactionMajority: PerTransaction sizes one-vote-per-participant
// majority quorums from each transaction's participant list, and is the only
// Spec allowed to omit the vote assignment — the zero Spec is not it.
func TestPerTransactionMajority(t *testing.T) {
	for v, want := range map[int][2]int{1: {1, 1}, 4: {3, 2}, 5: {3, 3}, 8: {5, 4}} {
		if vc, va := Majority(v); vc != want[0] || va != want[1] || vc+va <= v {
			t.Errorf("Majority(%d) = %d, %d, want %v", v, vc, va, want)
		}
	}
	if err := PerTransaction().Validate(); err != nil {
		t.Errorf("PerTransaction invalid: %v", err)
	}
	if err := (Spec{Variant: SkeenQ}).Validate(); err == nil {
		t.Error("SkeenQ Spec with forgotten votes and quorums accepted")
	}
	if err := (Spec{Variant: SkeenQ, Vc: 3, Va: 2}).Validate(); err == nil {
		t.Error("quorums without a vote assignment accepted")
	}
	w, pc := types.StateWait, types.StatePC
	four := compiled(PerTransaction(), nil, nil, []types.SiteID{2, 3, 4, 5}) // Vc=3, Va=2
	if got := four.Decide(protocoltest.Tally(map[types.SiteID]types.State{2: w, 3: w})); got != quorumcalc.VerdictTryAbort {
		t.Errorf("2 of 4 participants in W = %v, want try-abort", got)
	}
	eight := compiled(PerTransaction(), nil, nil, []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}) // Vc=5, Va=4
	if got := eight.Decide(protocoltest.Tally(map[types.SiteID]types.State{2: w, 3: w})); got != quorumcalc.VerdictBlock {
		t.Errorf("2 of 8 participants in W = %v, want block", got)
	}
	if got := eight.Decide(protocoltest.Tally(map[types.SiteID]types.State{1: pc, 2: w, 3: w, 4: w, 5: w})); got != quorumcalc.VerdictTryCommit {
		t.Errorf("5 of 8 participants with a PC = %v, want try-commit", got)
	}
}
