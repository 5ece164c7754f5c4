package core

import (
	"strings"
	"testing"

	"qcommit/internal/types"
)

func TestClassify(t *testing.T) {
	q, w, pc, c, a := types.StateInitial, types.StateWait, types.StatePC, types.StateCommitted, types.StateAborted
	cases := []struct {
		states []types.State
		want   PartitionState
	}{
		{nil, PSNone},
		{[]types.State{q}, PS1},
		{[]types.State{q, w}, PS1},
		{[]types.State{w}, PS2},
		{[]types.State{w, w, w}, PS2},
		{[]types.State{a}, PS3},
		{[]types.State{q, a}, PS3}, // A dominates (PS1 requires no A)
		{[]types.State{w, a}, PS3},
		{[]types.State{pc, w}, PS4},
		{[]types.State{pc}, PS5},
		{[]types.State{pc, pc}, PS5},
		{[]types.State{c}, PS6},
		{[]types.State{pc, c}, PS6},
		{[]types.State{w, c}, PS6},
	}
	for _, tc := range cases {
		if got := Classify(tc.states); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.states, got, tc.want)
		}
	}
}

// TestConcurrencySets verifies the load-bearing facts of the paper's Fig. 4
// argument.
func TestConcurrencySets(t *testing.T) {
	cs := ConcurrencySets()

	has := func(a, b PartitionState) bool { return containsPS(cs[a], b) }

	// "PS3 is in both C(PS1) and C(PS2)" — so PS1 and PS2 can only block or
	// abort.
	if !has(PS1, PS3) || !has(PS2, PS3) {
		t.Error("PS3 must be concurrent with PS1 and PS2")
	}
	// "PS6 is in C(PS5)" — so PS5 can only block or commit.
	if !has(PS5, PS6) {
		t.Error("PS6 must be concurrent with PS5")
	}
	// "PS2 is in C(PS5) and vice versa" — the impossibility argument's core.
	if !has(PS2, PS5) || !has(PS5, PS2) {
		t.Error("PS2 and PS5 must be mutually concurrent")
	}
	// An all-W partition can never be concurrent with a committed one in
	// 3PC (COMMIT is sent only after every participant reached PC).
	if has(PS2, PS6) {
		t.Error("PS6 must not be concurrent with PS2 under 3PC")
	}
	// A PC-containing partition can never be concurrent with an abort:
	// PREPARE-TO-COMMIT is only sent after unanimous yes votes.
	if has(PS5, PS3) || has(PS4, PS3) {
		t.Error("PS3 must not be concurrent with PS4/PS5")
	}
	// A committed partition cannot coexist with an initial-state one.
	if has(PS6, PS1) {
		t.Error("PS6 must not be concurrent with PS1")
	}
}

// TestAllowedActions mechanizes the rule-1/rule-2 derivation quoted in
// section 2 of the paper.
func TestAllowedActions(t *testing.T) {
	actions := AllowedActions()
	want := map[PartitionState]Action{
		PS1: ActionBlockOrAbort,
		PS2: ActionBlockOrAbort,
		PS3: ActionAbort,
		PS4: ActionConsistent,
		PS5: ActionBlockOrCommit,
		PS6: ActionCommit,
	}
	for ps, a := range want {
		if actions[ps] != a {
			t.Errorf("action(%v) = %v, want %v", ps, actions[ps], a)
		}
	}
}

// TestImpossibilityWitness reproduces the section-3 negative result: PS2 and
// PS5 may be concurrent, PS2 may only block-or-abort, PS5 may only
// block-or-commit — so two partitions, each holding a replica quorum for a
// different written item, cannot both terminate. No termination protocol
// escapes this.
func TestImpossibilityWitness(t *testing.T) {
	cs := ConcurrencySets()
	actions := AllowedActions()
	if !containsPS(cs[PS2], PS5) {
		t.Fatal("witness needs PS2 concurrent with PS5")
	}
	if actions[PS2] == ActionBlockOrCommit || actions[PS2] == ActionCommit {
		t.Error("PS2 must never be allowed to commit")
	}
	if actions[PS5] == ActionBlockOrAbort || actions[PS5] == ActionAbort {
		t.Error("PS5 must never be allowed to abort")
	}
}

func TestFig4TableRenders(t *testing.T) {
	out := Fig4Table()
	for _, want := range []string{"PS1", "PS6", "block-or-abort", "block-or-commit", "concurrency set"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4Table missing %q:\n%s", want, out)
		}
	}
}

func TestFig6NoBufferCrossing(t *testing.T) {
	if LegalTransition(types.StatePC, types.StatePA) {
		t.Error("PC→PA must be illegal")
	}
	if LegalTransition(types.StatePA, types.StatePC) {
		t.Error("PA→PC must be illegal")
	}
}

func TestFig6Reachability(t *testing.T) {
	// Every state is reachable from q and every non-terminal state reaches a
	// terminal one.
	adj := make(map[types.State][]types.State)
	for _, tr := range Fig6Transitions() {
		adj[tr.From] = append(adj[tr.From], tr.To)
	}
	reach := map[types.State]bool{types.StateInitial: true}
	stack := []types.State{types.StateInitial}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[s] {
			if !reach[n] {
				reach[n] = true
				stack = append(stack, n)
			}
		}
	}
	for _, s := range []types.State{types.StateWait, types.StatePC, types.StatePA, types.StateCommitted, types.StateAborted} {
		if !reach[s] {
			t.Errorf("%s unreachable from q", s)
		}
	}
	// Terminal states are absorbing: no outgoing edges.
	if len(adj[types.StateCommitted]) != 0 || len(adj[types.StateAborted]) != 0 {
		t.Error("terminal states must have no outgoing transitions")
	}
}

func TestFig6TableRenders(t *testing.T) {
	out := Fig6Table()
	if !strings.Contains(out, "no transition exists between PC and PA") {
		t.Error("Fig6Table missing the PC/PA note")
	}
}

func TestSpecNames(t *testing.T) {
	if (Spec{}).Name() != "QC1" {
		t.Errorf("default spec name = %q", (Spec{}).Name())
	}
	if (Spec{Variant: Protocol2}).Name() != "QC2" {
		t.Errorf("protocol 2 name = %q", (Spec{Variant: Protocol2}).Name())
	}
	if (Spec{Variant: TwoPC}).Name() != "2PC" || TwoPC.String() != "2PC" {
		t.Errorf("2PC name = %q, variant string = %q", (Spec{Variant: TwoPC}).Name(), TwoPC.String())
	}
	if Protocol1.String() != "protocol 1" {
		t.Errorf("variant string = %q", Protocol1.String())
	}
}
