package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qcommit/internal/protocoltest"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
)

// TestTPOppositeImmediateVerdictsImpossible is the rules-level form of
// Theorem 1: take any *legal* interrupted global state (every participant
// voted yes; the coordinator crashed mid-PREPARE, so each participant is in
// W or PC) and any split of the participants into two partitions. It must
// never happen that one partition's tally yields an immediate COMMIT verdict
// while the other yields an immediate ABORT verdict — immediate verdicts act
// without further acknowledgements, so a conflict here would be an
// unconditional atomicity violation.
func TestTPOppositeImmediateVerdictsImpossible(t *testing.T) {
	all := []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
	rules := []*quorumcalc.Quorums{tp1, tp2}

	f := func(pcMask, splitMask uint8) bool {
		g1 := make(map[types.SiteID]types.State)
		g2 := make(map[types.SiteID]types.State)
		for i, s := range all {
			st := types.StateWait
			if pcMask&(1<<i) != 0 {
				st = types.StatePC
			}
			if splitMask&(1<<i) != 0 {
				g1[s] = st
			} else {
				g2[s] = st
			}
		}
		for _, r := range rules {
			v1 := quorumcalc.VerdictBlock
			if len(g1) > 0 {
				v1 = r.Decide(protocoltest.Tally(g1))
			}
			v2 := quorumcalc.VerdictBlock
			if len(g2) > 0 {
				v2 = r.Decide(protocoltest.Tally(g2))
			}
			if (v1 == quorumcalc.VerdictCommit && v2 == quorumcalc.VerdictAbort) ||
				(v1 == quorumcalc.VerdictAbort && v2 == quorumcalc.VerdictCommit) {
				return false
			}
			// Stronger: an immediate COMMIT in one partition must make even
			// a *confirmed* abort quorum impossible in the other, because
			// immediate commit requires w(x) votes ∀x among PC sites, whose
			// complement cannot reach r(x) votes for any x.
			if v1 == quorumcalc.VerdictCommit && r.Qa(set(r, sitesOf(g2)...)) {
				return false
			}
			if v2 == quorumcalc.VerdictCommit && r.Qa(set(r, sitesOf(g1)...)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func sitesOf(m map[types.SiteID]types.State) []types.SiteID {
	out := make([]types.SiteID, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	return out
}

// TestTPVerdictPreconditions: structural sanity of the decision tables for
// arbitrary tallies (legal or not): a commit-side verdict requires a
// committable state in the partition; try-verdicts never fire on terminal
// evidence.
func TestTPVerdictPreconditions(t *testing.T) {
	all := []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
	states := []types.State{
		types.StateInitial, types.StateWait, types.StatePC,
		types.StatePA, types.StateCommitted, types.StateAborted,
	}
	rules := []*quorumcalc.Quorums{tp1, tp2}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		tallyMap := make(map[types.SiteID]types.State)
		for _, s := range all {
			if rng.Intn(3) > 0 { // ~2/3 of sites respond
				tallyMap[s] = states[rng.Intn(len(states))]
			}
		}
		if len(tallyMap) == 0 {
			continue
		}
		tl := protocoltest.Tally(tallyMap)
		for _, r := range rules {
			v := r.Decide(tl)
			anyCommittable := tl.Count(types.StatePC) > 0 || tl.Count(types.StateCommitted) > 0
			if (v == quorumcalc.VerdictCommit || v == quorumcalc.VerdictTryCommit) && !anyCommittable {
				t.Fatalf("%s: commit-side verdict %v without any committable state: %v", r.Name(), v, tallyMap)
			}
			if v == quorumcalc.VerdictTryCommit && (tl.Count(types.StateAborted) > 0 || tl.Count(types.StateInitial) > 0 || tl.Count(types.StateCommitted) > 0) {
				t.Fatalf("%s: try-commit despite terminal/initial evidence: %v", r.Name(), tallyMap)
			}
			if v == quorumcalc.VerdictTryAbort && (tl.Count(types.StateCommitted) > 0 || tl.Count(types.StateAborted) > 0 || tl.Count(types.StateInitial) > 0) {
				t.Fatalf("%s: try-abort despite decisive evidence: %v", r.Name(), tallyMap)
			}
		}
	}
}
