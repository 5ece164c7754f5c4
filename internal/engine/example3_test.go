package engine

import (
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/msg"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// example3Cluster builds the paper's Example 3 / Fig. 7 configuration:
// transaction TR issued at site1 updates x and y, whose copies x2..x5 and
// y2..y5 live at sites 2–5 with one vote each, w(x)=w(y)=3, r(x)=r(y)=2.
// The coordinator (site1) has crashed leaving site5 in PC and sites 2–4 in
// W. All messages between site2 and site3 and from site2 to site5 are lost,
// so both site2 and site3 win elections and run termination concurrently:
// site2 can only assemble an abort quorum, site3 only a commit quorum.
// The seed varies message delays, i.e. the interleaving of the two
// coordinators' PREPARE rounds at site4.
func example3Cluster(t testing.TB, seed int64, buggy bool) (*Cluster, types.TxnID) {
	t.Helper()
	asgn := voting.MustAssignment(
		voting.Uniform("x", 2, 3, 2, 3, 4, 5),
		voting.Uniform("y", 2, 3, 2, 3, 4, 5),
	)
	cl := New(Config{
		Seed:       seed,
		Assignment: asgn,
		Spec:       core.Spec{Variant: core.Protocol1, BuggyBufferCrossing: buggy},
		ExtraSites: []types.SiteID{1},
	})
	cl.Network().SetFilter(func(e msg.Envelope) bool {
		between23 := (e.From == 2 && e.To == 3) || (e.From == 3 && e.To == 2)
		from2to5 := e.From == 2 && e.To == 5
		return between23 || from2to5
	})
	ws := types.Writeset{{Item: "x", Value: 10}, {Item: "y", Value: 20}}
	txn := cl.SetupInterrupted(1, ws, map[types.SiteID]types.State{
		2: types.StateWait, 3: types.StateWait, 4: types.StateWait,
		5: types.StatePC,
	})
	cl.Crash(1)
	return cl, txn
}

// TestExample3BuggyRuleViolatesAtomicity reproduces the paper's
// counterexample at the seed whose interleaving lets site4 acknowledge both
// coordinators: site2 collects enough PA-ACKs to abort while site3 collects
// enough PC-ACKs to commit, and the transaction terminates inconsistently.
func TestExample3BuggyRuleViolatesAtomicity(t *testing.T) {
	cl, txn := example3Cluster(t, Example3ViolatingSeed, true)
	cl.Run()

	outcomes := cl.Outcomes(txn)
	committed, aborted := 0, 0
	for _, o := range outcomes {
		switch o {
		case types.OutcomeCommitted:
			committed++
		case types.OutcomeAborted:
			aborted++
		}
	}
	if committed == 0 || aborted == 0 {
		t.Fatalf("expected mixed outcomes with the buggy rule, got %v", outcomes)
	}
	if v := cl.Violations(); len(v) == 0 {
		t.Error("expected an atomicity violation report")
	} else {
		t.Logf("violation (expected): %s", v[0])
	}
}

// TestExample3Sweep drives the two-coordinator scenario across 60 delay
// seeds, with and without the paper's buffer-state rule. The buggy variant
// must violate atomicity for at least one interleaving (that is the point of
// the counterexample), Example3ViolatingSeed among them; the correct rule
// must never violate it. The terminators close their windows on the reply
// they wait for, so the buggy double acknowledgement has to land within one
// round trip and only a few interleavings manage it: it is the buffer-state
// rule, not the length of a timer, that protects.
func TestExample3Sweep(t *testing.T) {
	buggyViolations, correctViolations := 0, 0
	fixtureViolates := false
	sawCommit, sawAbort := false, false
	for seed := int64(1); seed <= 60; seed++ {
		for _, buggy := range []bool{true, false} {
			cl, txn := example3Cluster(t, seed, buggy)
			cl.Run()
			v := cl.Violations()
			if buggy {
				if len(v) > 0 {
					buggyViolations++
					fixtureViolates = fixtureViolates || seed == Example3ViolatingSeed
				}
				continue
			}
			if len(v) > 0 {
				correctViolations++
				t.Errorf("seed %d: correct rule violated atomicity: %v (outcomes %v)",
					seed, v, cl.Outcomes(txn))
			}
			for _, o := range cl.Outcomes(txn) {
				if o == types.OutcomeCommitted {
					sawCommit = true
				}
				if o == types.OutcomeAborted {
					sawAbort = true
				}
			}
		}
	}
	if buggyViolations == 0 {
		t.Error("buggy buffer-crossing rule never violated atomicity across 60 interleavings; the counterexample should manifest")
	}
	if !fixtureViolates {
		t.Errorf("Example3ViolatingSeed = %d is not among the violating seeds; re-pick it from this sweep", Example3ViolatingSeed)
	}
	t.Logf("buggy violations: %d/60 seeds; correct: %d/60; correct-rule global outcomes seen: commit=%v abort=%v",
		buggyViolations, correctViolations, sawCommit, sawAbort)
}
