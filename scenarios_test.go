package qcommit

import (
	"strings"
	"testing"
)

// TestExample1ComparisonTable pins the exact per-protocol shape of the
// paper's Example 1 scenario — the headline comparison of EXPERIMENTS.md.
func TestExample1ComparisonTable(t *testing.T) {
	type row struct {
		terminated, blocked int
		readablePairs       int
		violations          bool
	}
	want := map[Protocol]row{
		// 2PC: everyone voted yes, nobody knows the decision: all blocked.
		Proto2PC: {terminated: 0, blocked: 3, readablePairs: 0},
		// 3PC: terminates everywhere but splits the decision (Example 2).
		Proto3PC: {terminated: 3, blocked: 0, readablePairs: 2, violations: true},
		// Skeen's quorum protocol: no partition reaches Vc=5 or Va=4 site
		// votes: all blocked (Example 1).
		ProtoSkeenQuorum: {terminated: 0, blocked: 3, readablePairs: 0},
		// The paper's protocol 1: G1 and G3 abort (Example 4).
		ProtoQC1: {terminated: 2, blocked: 1, readablePairs: 2},
		// Protocol 2 blocks here (its abort side needs w(x) votes for every
		// item); its advantage shows on the commit side and in aggregate.
		ProtoQC2: {terminated: 0, blocked: 3, readablePairs: 0},
	}
	for proto, w := range want {
		proto, w := proto, w
		t.Run(string(proto), func(t *testing.T) {
			c, txn, err := SetupExample1(proto, 1)
			if err != nil {
				t.Fatal(err)
			}
			c.Run()
			got := c.Availability(txn).Tally()
			if got.Terminated != w.terminated || got.Blocked != w.blocked {
				t.Errorf("terminated/blocked = %d/%d, want %d/%d",
					got.Terminated, got.Blocked, w.terminated, w.blocked)
			}
			if got.Readable != w.readablePairs {
				t.Errorf("readable pairs = %d, want %d", got.Readable, w.readablePairs)
			}
			if hasV := len(c.Violations()) > 0; hasV != w.violations {
				t.Errorf("violations = %v, want %v (%v)", hasV, w.violations, c.Violations())
			}
		})
	}
}

func TestSetupExample3PublicAPI(t *testing.T) {
	// Correct rule: safe for this seed.
	c, txn, err := SetupExample3(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("correct rule violated: %v", v)
	}
	_ = txn

	// Buggy rule at the known violating seed.
	c2, txn2, err := SetupExample3(true, Example3ViolatingSeed)
	if err != nil {
		t.Fatal(err)
	}
	c2.Run()
	if v := c2.Violations(); len(v) == 0 {
		t.Fatalf("buggy rule did not violate at seed %d: outcomes %v", Example3ViolatingSeed, c2.Outcomes(txn2))
	}
}

func TestSequenceDiagramPublicAPI(t *testing.T) {
	c := MustCluster([]ReplicatedItem{
		{Name: "x", Sites: []SiteID{1, 2, 3}, R: 2, W: 2},
	}, Options{Protocol: ProtoQC2, Seed: 1})
	txn := c.Submit(1, map[ItemID]int64{"x": 1})
	c.Run()
	if c.Outcome(txn) != OutcomeCommitted {
		t.Fatal("commit failed")
	}
	d := c.SequenceDiagram()
	for _, want := range []string{"site1", "site3", "VOTE-REQ", "COMMIT", "o", ">"} {
		if !strings.Contains(d, want) {
			t.Errorf("diagram missing %q:\n%s", want, d)
		}
	}
}

func TestSyncSitePublicPath(t *testing.T) {
	// Construct staleness directly: all sites PC except site8 (holds y),
	// which crashed in W; survivors commit; site8 restarts and anti-entropy
	// repairs its copy (this exercises Engine().SyncSite too).
	c := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 30})
	txn := c.SetupInterrupted(1, map[ItemID]int64{"x": 1, "y": 2}, map[SiteID]State{
		1: StatePC, 2: StatePC, 3: StatePC, 4: StatePC,
		5: StatePC, 6: StatePC, 7: StatePC, 8: StateWait,
	})
	c.Crash(8)
	c.Kick(txn)
	c.Run()
	if got := c.OutcomeAt(5, txn); got != OutcomeCommitted {
		t.Fatalf("survivors = %v", got)
	}
	c.Restart(8)
	c.Run()
	if v, _, err := c.CopyAt(8, "y"); err != nil || v != 2 {
		t.Errorf("site8 y = %d, %v; want 2 after anti-entropy", v, err)
	}
	// Re-running sync is idempotent.
	c.Engine().SyncSite(8)
	c.Run()
	if v, _, _ := c.CopyAt(8, "y"); v != 2 {
		t.Errorf("idempotent sync changed value to %d", v)
	}
}
