package core

import (
	"strings"
	"testing"

	"qcommit/internal/protocoltest"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
)

var sites = []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}

func TestByNameEveryStandardName(t *testing.T) {
	for _, want := range Standard(sites) {
		for _, name := range []string{want.Name(), strings.ToLower(want.Name()), strings.ToUpper(want.Name())} {
			got, err := ByName(name, sites)
			if err != nil {
				t.Errorf("ByName(%q): %v", name, err)
				continue
			}
			if got.Name() != want.Name() {
				t.Errorf("ByName(%q).Name() = %q, want %q", name, got.Name(), want.Name())
			}
		}
	}
}

func TestByNameRejects(t *testing.T) {
	if _, err := ByName("bogus", sites); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown name: err = %v, want one naming it", err)
	}
	if _, err := ByName("QC1", nil); err == nil {
		t.Error("empty site list accepted")
	}
}

// TestStandardSkeenQuorums: with no sites, Skeen's protocol sizes majority
// quorums over each transaction's participants; with the cluster's sites, it
// uses the cluster-wide majority whatever the participants.
func TestStandardSkeenQuorums(t *testing.T) {
	skeen := func(sites []types.SiteID) Spec {
		s := Standard(sites)[2]
		if s.Name() != "SkeenQ" {
			t.Fatalf("Standard(%v)[2] = %s, want SkeenQ", sites, s.Name())
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	w := types.StateWait
	two := map[types.SiteID]types.State{2: w, 3: w}
	four := []types.SiteID{2, 3, 4, 5}

	// Per transaction over 4 participants: Vc=3, Va=2, so two W sites abort.
	perTxn := compiled(skeen(nil), nil, nil, four)
	if got := perTxn.Decide(protocoltest.Tally(two)); got != quorumcalc.VerdictTryAbort {
		t.Errorf("per-transaction, 2 of 4 in W = %v, want try-abort", got)
	}
	// Cluster majority over 8 sites: Vc=5, Va=4 for the same participants.
	cluster := compiled(skeen(sites), nil, nil, four)
	if got := cluster.Decide(protocoltest.Tally(two)); got != quorumcalc.VerdictBlock {
		t.Errorf("cluster majority, 2 of 8 in W = %v, want block", got)
	}
	if cluster.Qa(set(cluster, 2, 3, 4)) || !cluster.Qa(set(cluster, 2, 3, 4, 5)) {
		t.Error("cluster majority abort quorum is not 4 of 8 sites")
	}
}
