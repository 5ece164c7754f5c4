package qcommit

import (
	"errors"
	"strings"
	"testing"
)

// paperItems is the replica layout of the paper's Examples 1, 2 and 4.
func paperItems() []ReplicatedItem {
	return []ReplicatedItem{
		{Name: "x", Sites: []SiteID{1, 2, 3, 4}, R: 2, W: 3, Initial: 100},
		{Name: "y", Sites: []SiteID{5, 6, 7, 8}, R: 2, W: 3, Initial: 200},
	}
}

func TestFailureFreeCommitPublicAPI(t *testing.T) {
	for _, proto := range AllProtocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			c := MustCluster(paperItems(), Options{Protocol: proto, Seed: 1})
			txn := c.Submit(1, map[ItemID]int64{"x": 111, "y": 222})
			c.Run()
			if got := c.Outcome(txn); got != OutcomeCommitted {
				t.Fatalf("outcome = %v, want committed", got)
			}
			if v, err := c.QuorumRead(1, "x"); err != nil || v != 111 {
				t.Errorf("QuorumRead(x) = %d, %v", v, err)
			}
			if v, err := c.QuorumRead(5, "y"); err != nil || v != 222 {
				t.Errorf("QuorumRead(y) = %d, %v", v, err)
			}
			if len(c.Violations()) != 0 {
				t.Errorf("violations: %v", c.Violations())
			}
		})
	}
}

func TestDefaultQuorumsAreMajority(t *testing.T) {
	c := MustCluster([]ReplicatedItem{
		{Name: "z", Sites: []SiteID{1, 2, 3, 4, 5}},
	}, Options{Seed: 1})
	txn := c.Submit(1, map[ItemID]int64{"z": 9})
	c.Run()
	if c.Outcome(txn) != OutcomeCommitted {
		t.Fatal("commit failed with default quorums")
	}
	// w = 3, r = 3 for 5 copies: any 3 sites can read.
	c.Partition([]SiteID{1, 2, 3}, []SiteID{4, 5})
	if _, err := c.QuorumRead(1, "z"); err != nil {
		t.Errorf("3-site partition should read: %v", err)
	}
	if _, err := c.QuorumRead(4, "z"); err == nil {
		t.Error("2-site partition should not read")
	}
}

func TestWeightedCopies(t *testing.T) {
	// Site 1's copy carries 3 votes: it alone satisfies r=3.
	c := MustCluster([]ReplicatedItem{
		{Name: "w", Sites: []SiteID{1, 2, 3}, Votes: []int{3, 1, 1}, R: 3, W: 3},
	}, Options{Seed: 1})
	txn := c.Submit(1, map[ItemID]int64{"w": 5})
	c.Run()
	if c.Outcome(txn) != OutcomeCommitted {
		t.Fatal("commit failed")
	}
	c.Partition([]SiteID{1}, []SiteID{2, 3})
	if _, err := c.QuorumRead(1, "w"); err != nil {
		t.Errorf("heavy copy alone should read: %v", err)
	}
	if _, err := c.QuorumRead(2, "w"); err == nil {
		t.Error("light copies should not reach the read quorum")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewCluster(nil, Options{}); err == nil {
		t.Error("empty items accepted")
	}
	if _, err := NewCluster([]ReplicatedItem{
		{Name: "x", Sites: []SiteID{1, 2}, Votes: []int{1}},
	}, Options{}); err == nil {
		t.Error("mismatched votes length accepted")
	}
	if _, err := NewCluster([]ReplicatedItem{
		{Name: "x", Sites: []SiteID{1, 2, 3, 4}, R: 1, W: 3},
	}, Options{}); err == nil {
		t.Error("r+w = v accepted")
	}
	if _, err := NewCluster(paperItems(), Options{Protocol: "nope"}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := NewCluster(paperItems(), Options{Protocol: ProtoSkeenQuorum, SkeenVc: 1, SkeenVa: 1}); err == nil {
		t.Error("invalid Skeen quorums accepted")
	}
	// Skeen quorums under any other protocol are refused, not ignored.
	for _, tc := range []struct {
		opts  Options
		field string
	}{
		{Options{Protocol: ProtoQC1, SkeenVc: 5}, "Options.SkeenVc"},
		{Options{SkeenVc: 5, SkeenVa: 4}, "Options.SkeenVc"},
		{Options{Protocol: Proto3PC, SkeenVa: 4}, "Options.SkeenVa"},
	} {
		if _, err := NewCluster(paperItems(), tc.opts); err == nil {
			t.Errorf("%+v accepted", tc.opts)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %q does not name %s", tc.opts, err, tc.field)
		}
	}
	if _, err := NewCluster(paperItems(), Options{Protocol: "skeenq", SkeenVc: 5, SkeenVa: 4}); err != nil {
		t.Errorf("valid Skeen quorums refused: %v", err)
	}
}

// TestClusterNetValidation runs badNet through NewCluster: every row is
// refused with an error naming its Options field, and the settings just
// inside the bounds still build.
func TestClusterNetValidation(t *testing.T) {
	for _, tc := range badNet {
		_, err := NewCluster(paperItems(), Options{
			MinDelay: Duration(tc.min), MaxDelay: Duration(tc.max), LossProb: tc.loss, DupProb: tc.dup,
		})
		if err == nil {
			t.Errorf("%s accepted", tc.name)
		} else if !strings.Contains(err.Error(), "Options."+tc.field) {
			t.Errorf("%s: error %q does not name Options.%s", tc.name, err, tc.field)
		}
	}
	for _, opts := range []Options{
		{MaxDelay: 5 * Millisecond},
		{MinDelay: 5 * Millisecond, MaxDelay: 5 * Millisecond},
		{LossProb: 1, DupProb: 1},
	} {
		if _, err := NewCluster(paperItems(), opts); err != nil {
			t.Errorf("%+v refused: %v", opts, err)
		}
	}
}

func TestExample4ThroughPublicAPI(t *testing.T) {
	c := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 4})
	txn := c.SetupInterrupted(1, map[ItemID]int64{"x": 1, "y": 2}, map[SiteID]State{
		1: StateWait, 2: StateWait, 3: StateWait, 4: StateWait,
		5: StatePC, 6: StateWait, 7: StateWait, 8: StateWait,
	})
	c.Crash(1)
	c.Partition([]SiteID{1, 2, 3}, []SiteID{4, 5}, []SiteID{6, 7, 8})
	c.Run()

	// G1 aborted: x readable there with its pre-transaction value.
	if v, err := c.QuorumRead(2, "x"); err != nil || v != 100 {
		t.Errorf("G1 read x = %d, %v; want 100 (initial)", v, err)
	}
	// G3 aborted: y writable there.
	if !c.CanWrite(6, "y") {
		t.Error("G3 should be able to write y")
	}
	// G2 blocked: x inaccessible (site4's copy locked, quorum unreachable).
	if _, err := c.QuorumRead(4, "x"); !errors.Is(err, ErrNoQuorum) {
		t.Errorf("G2 read x err = %v, want ErrNoQuorum", err)
	}
	rep := c.Availability(txn)
	if len(rep.Groups) != 3 {
		t.Errorf("availability groups = %d", len(rep.Groups))
	}
	if !strings.Contains(rep.String(), "blocked") {
		t.Error("availability report should mention the blocked partition")
	}
}

func TestTwoPCBlocksThenRecoversAfterHeal(t *testing.T) {
	c := MustCluster(paperItems(), Options{Protocol: Proto2PC, Seed: 5})
	txn := c.SetupInterrupted(1, map[ItemID]int64{"x": 1, "y": 2}, map[SiteID]State{
		1: StateWait, 2: StateWait, 3: StateWait, 4: StateWait,
		5: StateWait, 6: StateWait, 7: StateWait, 8: StateWait,
	})
	c.Crash(1)
	c.Partition([]SiteID{1, 2, 3, 4}, []SiteID{5, 6, 7, 8})
	c.Run()
	if got := c.Outcome(txn); got != OutcomeBlocked {
		t.Fatalf("2PC under coordinator crash should block, got %v", got)
	}

	// The coordinator recovers: its WAL shows only VOTED-YES... all sites
	// uncertain. Heal and restart site1: cooperative termination still
	// blocks (all voted yes, nobody knows the decision) — the textbook 2PC
	// window. Now let site1's recovery resolve it: in this implementation
	// site1 is just another uncertain participant, so the transaction stays
	// blocked; this is exactly 2PC's weakness.
	c.Heal()
	c.Restart(1)
	c.Kick(txn)
	c.Run()
	if got := c.Outcome(txn); got != OutcomeBlocked {
		t.Fatalf("all-yes 2PC with lost coordinator decision must stay blocked, got %v", got)
	}
}

func TestQC1RecoversAfterHealWithKick(t *testing.T) {
	c := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 6})
	txn := c.SetupInterrupted(1, map[ItemID]int64{"x": 1, "y": 2}, map[SiteID]State{
		1: StateWait, 2: StateWait, 3: StateWait, 4: StateWait,
		5: StatePC, 6: StateWait, 7: StateWait, 8: StateWait,
	})
	c.Crash(1)
	c.Partition([]SiteID{1, 2, 3}, []SiteID{4, 5}, []SiteID{6, 7, 8})
	c.Run()
	// G2 blocked (Example 4).
	if got := c.OutcomeAt(4, txn); got != OutcomeBlocked {
		t.Fatalf("site4 = %v, want blocked", got)
	}
	// Partition heals; a fresh termination round must finish the job: the
	// new coordinator sees aborted sites and aborts G2's survivors.
	c.Heal()
	c.Kick(txn)
	c.Run()
	for _, id := range []SiteID{4, 5} {
		if got := c.OutcomeAt(id, txn); got != OutcomeAborted {
			t.Errorf("site%d after heal = %v, want aborted", id, got)
		}
	}
	if len(c.Violations()) != 0 {
		t.Errorf("violations: %v", c.Violations())
	}
	// Everything is accessible again.
	if _, err := c.QuorumRead(4, "x"); err != nil {
		t.Errorf("post-heal read: %v", err)
	}
}

func TestCrashRecoveryMidCommit(t *testing.T) {
	c := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 7})
	txn := c.Submit(1, map[ItemID]int64{"x": 7, "y": 8})
	// Let the protocol commit fully, then crash and restart a site: its WAL
	// must reflect the commit.
	c.Run()
	if c.Outcome(txn) != OutcomeCommitted {
		t.Fatal("commit failed")
	}
	c.Crash(3)
	c.Restart(3)
	c.Run()
	if got := c.OutcomeAt(3, txn); got != OutcomeCommitted {
		t.Errorf("site3 after restart = %v, want committed (from WAL)", got)
	}
	if v, _, err := c.CopyAt(3, "x"); err != nil || v != 7 {
		t.Errorf("site3 copy of x = %d, %v", v, err)
	}
}

func TestCrashDuringPrepareRecoversViaTermination(t *testing.T) {
	// Crash a participant mid-protocol, the moment it enters PC; the rest
	// commit; the crashed site must learn the decision after restarting
	// (via its own termination round polling the committed survivors).
	c := MustCluster(paperItems(), Options{Protocol: ProtoQC2, Seed: 8})
	txn := c.Submit(1, map[ItemID]int64{"x": 7, "y": 8})
	for i := 0; c.StateOf(8, txn) != StatePC; i++ {
		if i == 20_000 || c.Engine().Scheduler().Pending() == 0 {
			t.Fatalf("site8 never reached PC (state %v at %v)", c.StateOf(8, txn), c.Now())
		}
		c.RunFor(10 * Microsecond)
	}
	c.Crash(8)
	c.Run()
	if got := c.Outcome(txn); got != OutcomeCommitted {
		t.Fatalf("survivors should commit (QC2 needs only r votes of acks), got %v", got)
	}
	c.Restart(8)
	c.Run()
	if got := c.OutcomeAt(8, txn); got != OutcomeCommitted {
		t.Errorf("site8 after restart = %v, want committed", got)
	}
	if len(c.Violations()) != 0 {
		t.Errorf("violations: %v", c.Violations())
	}
}

func TestRefuseVotesAborts(t *testing.T) {
	c := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 9})
	c.RefuseVotes(7, true)
	txn := c.Submit(2, map[ItemID]int64{"x": 5, "y": 6})
	c.Run()
	if got := c.Outcome(txn); got != OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted", got)
	}
	// Values untouched.
	if v, err := c.QuorumRead(1, "x"); err != nil || v != 100 {
		t.Errorf("x = %d, %v; want 100", v, err)
	}
}

func TestLadderAndStats(t *testing.T) {
	c := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 10})
	txn := c.Submit(1, map[ItemID]int64{"x": 1, "y": 2})
	c.Run()
	if c.Outcome(txn) != OutcomeCommitted {
		t.Fatal("commit failed")
	}
	lad := c.MessageLadder()
	for _, want := range []string{"VOTE-REQ", "PREPARE-TO-COMMIT", "COMMIT"} {
		if !strings.Contains(lad, want) {
			t.Errorf("ladder missing %s", want)
		}
	}
	st := c.NetworkStats()
	if st.Sent == 0 || st.Delivered == 0 || st.Bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnknownItemRead(t *testing.T) {
	c := MustCluster(paperItems(), Options{Seed: 1})
	if _, err := c.QuorumRead(1, "ghost"); !errors.Is(err, ErrUnknownItem) {
		t.Errorf("err = %v, want ErrUnknownItem", err)
	}
	if c.CanWrite(1, "ghost") || c.CanRead(1, "ghost") {
		t.Error("unknown item reported accessible")
	}
}

func TestMessageLossAndDuplicationNeverViolate(t *testing.T) {
	// With 10% loss and 10% duplication every protocol except 3PC must
	// still terminate consistently (possibly via termination rounds); the
	// outcome may be commit, abort, or blocked — never mixed.
	for _, proto := range []Protocol{Proto2PC, ProtoSkeenQuorum, ProtoQC1, ProtoQC2} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			for seed := int64(1); seed <= 15; seed++ {
				c := MustCluster(paperItems(), Options{
					Protocol: proto, Seed: seed, LossProb: 0.10, DupProb: 0.10,
				})
				c.Submit(1, map[ItemID]int64{"x": 1, "y": 2})
				c.Run()
				if v := c.Violations(); len(v) != 0 {
					t.Fatalf("seed %d: violations under loss: %v", seed, v)
				}
			}
		})
	}
}

func TestHeavyDuplicationIdempotent(t *testing.T) {
	// Every message duplicated: idempotent handlers (re-acks, duplicate
	// COMMIT application, stale version applies) must keep the run clean.
	c := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 3, DupProb: 1.0})
	txn := c.Submit(1, map[ItemID]int64{"x": 5, "y": 6})
	c.Run()
	if got := c.Outcome(txn); got != OutcomeCommitted {
		t.Fatalf("outcome = %v", got)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if v, err := c.QuorumRead(1, "x"); err != nil || v != 5 {
		t.Errorf("x = %d, %v", v, err)
	}
}

// TestAntiEntropyRepairsStaleCopy: a site that was down across a committed
// transaction it never voted on has a stale copy; restart triggers
// anti-entropy and the copy catches up to the committed version.
func TestAntiEntropyRepairsStaleCopy(t *testing.T) {
	c := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 21})
	c.Crash(4) // holds a copy of x
	// Participants {1,2,3,4}: site4 down → vote timeout → abort. For the
	// commit to proceed we need x's quorum without site4... votes are
	// unanimous, so write a different item set: y lives on 5-8, commit one
	// on y only.
	txnY := c.Submit(5, map[ItemID]int64{"y": 77})
	c.Run()
	if c.Outcome(txnY) != OutcomeCommitted {
		t.Fatalf("y txn = %v", c.Outcome(txnY))
	}
	// Now restart site4 — its x copy is version 1 and consistent; no repair
	// needed. The interesting case: crash 8 (holds y), commit y again, then
	// restart 8 and check it catches up without having voted.
	c.Restart(4)
	c.Crash(8)
	txnY2 := c.Submit(5, map[ItemID]int64{"y": 88})
	c.Run()
	if got := c.Outcome(txnY2); got != OutcomeAborted {
		// With a copy holder down the unanimous vote fails: aborted.
		t.Fatalf("txnY2 = %v, want aborted (copy holder down)", got)
	}
	c.Restart(8)
	c.Run()
	// site8 was down across txnY? No — txnY committed before the crash. Set
	// up the real staleness: crash 8, commit on y's surviving quorum is
	// impossible (unanimous votes), so staleness can only arise from
	// termination-protocol commits. Construct it directly:
	c2 := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 22})
	txn := c2.SetupInterrupted(1, map[ItemID]int64{"x": 1, "y": 2}, map[SiteID]State{
		1: StatePC, 2: StatePC, 3: StatePC, 4: StatePC,
		5: StatePC, 6: StatePC, 7: StatePC,
		// site8 crashed in W and lost its volatile state; it holds y.
		8: StateWait,
	})
	c2.Crash(8)
	c2.Kick(txn)
	c2.Run()
	// Survivors hold w(x) votes for x (4 PC sites) and w(y)=3 for y
	// (sites 5-7 in PC) → immediate commit.
	if got := c2.OutcomeAt(5, txn); got != OutcomeCommitted {
		t.Fatalf("survivors = %v, want committed", got)
	}
	// site8's copy of y is stale (version 1).
	if _, ver, _ := c2.CopyAt(8, "y"); ver != 1 {
		t.Fatalf("site8 y version = %d, want stale 1", ver)
	}
	c2.Restart(8)
	c2.Run()
	v, ver, err := c2.CopyAt(8, "y")
	if err != nil || v != 2 || ver != uint64(txn)+1 {
		t.Errorf("site8 y after anti-entropy = %d (v%d), %v; want 2 (v%d)", v, ver, err, uint64(txn)+1)
	}
	if got := c2.OutcomeAt(8, txn); got != OutcomeCommitted {
		t.Errorf("site8 outcome after restart = %v, want committed (termination tells it)", got)
	}
}

// TestPersistentClusterPublicAPI: WALDir makes the whole database durable —
// a second cluster over the same directory resumes the committed state.
func TestPersistentClusterPublicAPI(t *testing.T) {
	dir := t.TempDir()
	c1 := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 1, WALDir: dir})
	txn := c1.Submit(1, map[ItemID]int64{"x": 1234, "y": 5678})
	c1.Run()
	if c1.Outcome(txn) != OutcomeCommitted {
		t.Fatal("commit failed")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := MustCluster(paperItems(), Options{Protocol: ProtoQC1, Seed: 2, WALDir: dir})
	defer c2.Close()
	if got := c2.Outcome(txn); got != OutcomeCommitted {
		t.Fatalf("restored outcome = %v", got)
	}
	if v, err := c2.QuorumRead(2, "x"); err != nil || v != 1234 {
		t.Errorf("restored x = %d, %v", v, err)
	}
}
