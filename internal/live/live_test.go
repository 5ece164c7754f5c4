package live

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/skeenq"
	"qcommit/internal/threepc"
	"qcommit/internal/transport/inproc"
	"qcommit/internal/twopc"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

func asgn() *voting.Assignment {
	return voting.MustAssignment(
		voting.Uniform("x", 2, 3, 1, 2, 3, 4),
		voting.Uniform("y", 2, 3, 5, 6, 7, 8),
	)
}

func specs() []protocol.Spec {
	sites := []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
	return []protocol.Spec{
		twopc.Spec{},
		threepc.Spec{},
		skeenq.Uniform(sites, 5, 4),
		core.Spec{Variant: core.Protocol1},
		core.Spec{Variant: core.Protocol2},
	}
}

func TestLiveFailureFreeCommit(t *testing.T) {
	for _, spec := range specs() {
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			t.Parallel()
			cl := New(Config{Assignment: asgn(), Spec: spec, Seed: 1, TimeoutBase: 30 * time.Millisecond})
			defer cl.Stop()
			ws := types.Writeset{{Item: "x", Value: 42}, {Item: "y", Value: 7}}
			txn := cl.Begin(1, ws)
			got := cl.WaitOutcome(txn, 3*time.Second)
			if got != types.OutcomeCommitted {
				t.Fatalf("outcome = %v, want committed", got)
			}
			if cl.Violated(txn) {
				t.Fatal("atomicity violated")
			}
			v, err := cl.Node(2).Store().Read("x")
			if err != nil || v.Value != 42 {
				t.Errorf("x at site2 = %+v, %v", v, err)
			}
		})
	}
}

// TestDefaultTFollowsLargerDelay pins the default T: four times the larger
// delay bound, so a MinDelay given alone cannot leave T at zero.
func TestDefaultTFollowsLargerDelay(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct{ min, max, want time.Duration }{
		{min: 5 * ms, want: 20 * ms},
		{min: ms, max: 3 * ms, want: 12 * ms},
		{want: 8 * ms}, // the 200µs–2ms default window
	} {
		cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, MinDelay: tc.min, MaxDelay: tc.max})
		got := cl.T()
		cl.Stop()
		if got != tc.want {
			t.Errorf("MinDelay %v, MaxDelay %v: T = %v, want %v", tc.min, tc.max, got, tc.want)
		}
	}
}

func TestLiveSequentialTransactions(t *testing.T) {
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol2}, Seed: 2, TimeoutBase: 30 * time.Millisecond})
	defer cl.Stop()
	for i := 0; i < 5; i++ {
		txn := cl.Begin(types.SiteID(i%4+1), types.Writeset{{Item: "x", Value: int64(i)}})
		if got := cl.WaitOutcome(txn, 3*time.Second); got != types.OutcomeCommitted {
			t.Fatalf("txn %d outcome = %v", i, got)
		}
	}
	v, err := cl.Node(1).Store().Read("x")
	if err != nil || v.Value != 4 {
		t.Errorf("final x = %+v, %v; want 4", v, err)
	}
}

func TestLiveConcurrentDisjointTransactions(t *testing.T) {
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, Seed: 3, TimeoutBase: 30 * time.Millisecond})
	defer cl.Stop()
	t1 := cl.Begin(1, types.Writeset{{Item: "x", Value: 10}})
	t2 := cl.Begin(5, types.Writeset{{Item: "y", Value: 20}})
	if got := cl.WaitOutcome(t1, 3*time.Second); got != types.OutcomeCommitted {
		t.Errorf("t1 = %v", got)
	}
	if got := cl.WaitOutcome(t2, 3*time.Second); got != types.OutcomeCommitted {
		t.Errorf("t2 = %v", got)
	}
}

func TestLiveConflictingTransactionsTerminateSafely(t *testing.T) {
	// Two transactions writing x race for the same copy locks. The no-wait
	// policy makes a participant that cannot lock vote no, so depending on
	// the interleaving one commits and one aborts, or both abort — but both
	// always terminate and neither violates atomicity.
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, Seed: 4, TimeoutBase: 30 * time.Millisecond})
	defer cl.Stop()
	t1 := cl.Begin(1, types.Writeset{{Item: "x", Value: 1}})
	t2 := cl.Begin(2, types.Writeset{{Item: "x", Value: 2}})
	o1 := cl.WaitOutcome(t1, 3*time.Second)
	o2 := cl.WaitOutcome(t2, 3*time.Second)
	if cl.Violated(t1) || cl.Violated(t2) {
		t.Fatal("atomicity violated")
	}
	for i, o := range []types.Outcome{o1, o2} {
		if o != types.OutcomeCommitted && o != types.OutcomeAborted {
			t.Errorf("t%d outcome = %v, want a terminal decision", i+1, o)
		}
	}
	if o1 == types.OutcomeCommitted && o2 == types.OutcomeCommitted {
		t.Error("both committed despite a write-write conflict on every copy")
	}
}

func TestLiveCoordinatorCrashTerminationAborts(t *testing.T) {
	// Crash the coordinator immediately after submitting: participants that
	// never heard VOTE-REQ stay in q, so any termination round aborts.
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, Seed: 5,
		MinDelay: 2 * time.Millisecond, MaxDelay: 8 * time.Millisecond})
	defer cl.Stop()
	txn := cl.Begin(1, types.Writeset{{Item: "x", Value: 9}, {Item: "y", Value: 8}})
	time.Sleep(10 * time.Millisecond) // let VOTE-REQs reach the participants
	cl.Crash(1)
	got := cl.WaitOutcome(txn, 5*time.Second)
	if got != types.OutcomeAborted && got != types.OutcomeCommitted {
		// Depending on how far the protocol got, survivors may also have
		// committed (crash after distribution started); blocked would mean
		// the termination protocol failed to run.
		t.Fatalf("outcome = %v, want a terminal decision", got)
	}
	if cl.Violated(txn) {
		t.Fatal("atomicity violated")
	}
}

func TestLivePartitionThenHeal(t *testing.T) {
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol2}, Seed: 6, TimeoutBase: 30 * time.Millisecond})
	defer cl.Stop()
	cl.Partition([]types.SiteID{1, 2, 3, 4}, []types.SiteID{5, 6, 7, 8})
	// A transaction writing x and y cannot collect votes across the split;
	// it must abort (vote timeout) or block, never violate.
	txn := cl.Begin(1, types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}})
	got := cl.WaitOutcome(txn, 5*time.Second)
	if cl.Violated(txn) {
		t.Fatal("atomicity violated")
	}
	if got == types.OutcomeCommitted {
		t.Fatal("committed across a partition without y votes")
	}
	cl.Heal()
	// A fresh transaction after healing commits.
	txn2 := cl.Begin(1, types.Writeset{{Item: "x", Value: 3}, {Item: "y", Value: 4}})
	if got := cl.WaitOutcome(txn2, 5*time.Second); got != types.OutcomeCommitted {
		t.Fatalf("post-heal txn = %v", got)
	}
}

func TestLiveCrashRecoveryLearnsOutcome(t *testing.T) {
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol2}, Seed: 7, TimeoutBase: 30 * time.Millisecond})
	defer cl.Stop()
	txn := cl.Begin(1, types.Writeset{{Item: "x", Value: 5}, {Item: "y", Value: 6}})
	if got := cl.WaitOutcome(txn, 3*time.Second); got != types.OutcomeCommitted {
		t.Fatalf("outcome = %v", got)
	}
	cl.Crash(8)
	cl.Restart(8)
	deadline := time.Now().Add(3 * time.Second)
	for cl.OutcomeAt(8, txn) != types.OutcomeCommitted {
		if time.Now().After(deadline) {
			t.Fatalf("site8 never relearned the outcome: %v", cl.OutcomeAt(8, txn))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLiveMissingWritesStrategy exercises the adaptive strategy's wiring on
// the concurrent runtime: a failure-free commit reaches every copy and keeps
// the item optimistic; a degraded item is healed by the Heal-time catch-up
// pass (CopyReq/CopyResp + resolution) and returns to optimistic mode.
func TestLiveMissingWritesStrategy(t *testing.T) {
	cl := New(Config{
		Assignment: asgn(),
		Strategy:   voting.StrategyMissingWrites,
		Spec:       core.Spec{Variant: core.Protocol1},
		Seed:       31, TimeoutBase: 30 * time.Millisecond,
	})
	defer cl.Stop()
	if cl.Strategy() != voting.StrategyMissingWrites {
		t.Fatalf("Strategy() = %v", cl.Strategy())
	}
	ws := types.Writeset{{Item: "x", Value: 42}, {Item: "y", Value: 7}}
	txn := cl.Begin(1, ws)
	if got := cl.WaitOutcome(txn, 5*time.Second); got != types.OutcomeCommitted {
		t.Fatalf("outcome = %v, want committed", got)
	}
	// Nodes may still be distributing/applying the decision when WaitOutcome
	// returns (it reads WALs); allow the applies a moment to land before
	// asserting no copy was recorded missing.
	deadline := time.Now().Add(2 * time.Second)
	for cl.Tracker().ItemMode("x") != voting.Optimistic || cl.Tracker().ItemMode("y") != voting.Optimistic {
		if time.Now().After(deadline) {
			t.Fatalf("failure-free commit left modes %v/%v, missing %v/%v",
				cl.Tracker().ItemMode("x"), cl.Tracker().ItemMode("y"), cl.Tracker().MissingAt("x"), cl.Tracker().MissingAt("y"))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Degrade x by hand (the deterministic engine covers the real
	// commit-misses-a-copy path): with site 4 cut off, report a commit
	// applied at site 1 that every reachable copy already carries (txn 0:
	// version 1). Then let the heal-time catch-up pass resolve it: site 4's
	// copy already holds the newest version, so the CopyResp round-trip
	// restores optimistic mode.
	cl.Partition([]types.SiteID{1, 2, 3}, []types.SiteID{4})
	cl.tracker.CommitApplied(1, 0, types.Writeset{{Item: "x"}})
	if cl.Tracker().ItemMode("x") != voting.Pessimistic {
		t.Fatal("degraded item not pessimistic")
	}
	if missing := cl.Tracker().MissingAt("x"); len(missing) != 1 || missing[0] != 4 {
		t.Fatalf("missing = %v, want [4]", missing)
	}
	cl.Heal()
	deadline = time.Now().Add(2 * time.Second)
	for cl.Tracker().ItemMode("x") != voting.Optimistic {
		if time.Now().After(deadline) {
			t.Fatalf("heal catch-up did not restore optimistic mode, missing %v", cl.Tracker().MissingAt("x"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d, r := cl.Tracker().ModeTransitions(); d != 1 || r != 1 {
		t.Errorf("transitions = %d/%d, want 1/1", d, r)
	}
}

// TestLiveDynamicStrategy exercises dynamic vote reassignment on the
// concurrent runtime: a failure-free commit keeps the full basis (no epoch
// churn); a hand-shrunk basis is restored by the Heal-time catch-up pass
// (CopyReq/CopyResp + rejoin reassignment).
func TestLiveDynamicStrategy(t *testing.T) {
	cl := New(Config{
		Assignment: asgn(),
		Strategy:   voting.StrategyDynamic,
		Spec:       core.Spec{Variant: core.Protocol1},
		Seed:       37, TimeoutBase: 30 * time.Millisecond,
	})
	defer cl.Stop()
	if cl.Strategy() != voting.StrategyDynamic {
		t.Fatalf("Strategy() = %v", cl.Strategy())
	}
	ws := types.Writeset{{Item: "x", Value: 42}, {Item: "y", Value: 7}}
	txn := cl.Begin(1, ws)
	if got := cl.WaitOutcome(txn, 5*time.Second); got != types.OutcomeCommitted {
		t.Fatalf("outcome = %v, want committed", got)
	}
	// Applies may still be landing when WaitOutcome returns; the full-reach
	// commit must leave the basis whole either way.
	deadline := time.Now().Add(2 * time.Second)
	for len(cl.Tracker().VotesNow("x")) != 4 || cl.Tracker().VoteEpoch("x") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("failure-free commit churned the basis: epoch %d votes %v",
				cl.Tracker().VoteEpoch("x"), cl.Tracker().VotesNow("x"))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Shrink the basis by hand (the deterministic engine covers the real
	// commit-misses-a-copy path): with site 4 cut off, report a commit
	// applied at site 1 that every reachable copy already carries (txn 0:
	// version 1). Then let the heal-time catch-up pass restore it: site 4's
	// copy already holds the newest version, so the CopyResp round-trip
	// rejoins it.
	cl.Partition([]types.SiteID{1, 2, 3}, []types.SiteID{4})
	cl.tracker.CommitApplied(1, 0, types.Writeset{{Item: "x"}})
	if cl.Tracker().VoteEpoch("x") != 1 || len(cl.Tracker().VotesNow("x")) != 3 {
		t.Fatalf("hand shrink rejected: epoch %d votes %v", cl.Tracker().VoteEpoch("x"), cl.Tracker().VotesNow("x"))
	}
	cl.Heal()
	deadline = time.Now().Add(2 * time.Second)
	for len(cl.Tracker().VotesNow("x")) != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("heal catch-up did not restore the basis: epoch %d votes %v",
				cl.Tracker().VoteEpoch("x"), cl.Tracker().VotesNow("x"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if re, ro := cl.Tracker().VoteTransitions(); re != 2 || ro != 1 {
		t.Errorf("transitions = %d/%d, want 2/1", re, ro)
	}
}

// TestLivePostAfterStopShedsInsteadOfBlocking is the mailbox regression
// test: posting to a stopped cluster must neither panic nor block, even far
// past the old 1024-entry channel buffer. Before the unbounded stop-safe
// mailbox, the 1025th post would hang forever and a post racing Stop could
// hit a closed channel.
func TestLivePostAfterStopShedsInsteadOfBlocking(t *testing.T) {
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, Seed: 8, TimeoutBase: 20 * time.Millisecond})
	txn := cl.Begin(1, types.Writeset{{Item: "x", Value: 1}})
	cl.WaitOutcome(txn, 3*time.Second)
	cl.Stop()

	done := make(chan struct{})
	go func() {
		defer close(done)
		n := cl.Node(1)
		for i := 0; i < 5000; i++ {
			n.post(event{env: &msg.Envelope{From: 2, To: 1, Msg: msg.CopyReq{Item: "x"}}})
		}
		// Public entry points must be equally safe after Stop.
		cl.Begin(2, types.Writeset{{Item: "x", Value: 2}})
		cl.Crash(3)
		cl.Restart(3)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("posting to a stopped cluster blocked")
	}
}

// TestLiveStopRacesTimersAndMessages: stop the cluster while transactions,
// timers and crash churn are in full flight. Run under -race this pins the
// stop-safety of the mailbox (the old channel could be sent to after the
// loop exited, blocking the sender forever).
func TestLiveStopRacesTimersAndMessages(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol2}, Seed: seed,
			MinDelay: 100 * time.Microsecond, MaxDelay: 1 * time.Millisecond})
		for i := 0; i < 8; i++ {
			cl.Begin(types.SiteID(i%4+1), types.Writeset{{Item: "x", Value: int64(i)}, {Item: "y", Value: int64(i)}})
		}
		cl.Crash(2)
		cl.Restart(2)
		// Stop immediately: in-flight sends, AfterFunc timers and the churn
		// above race the node shutdowns.
		cl.Stop()
	}
}

// TestLiveMailboxBacklogDoesNotDeadlock floods one node with far more
// events than the old channel buffer held while its goroutine is running
// normally — the cross-node flood that used to deadlock the cluster under
// heavy submit load now just grows the mailbox.
func TestLiveMailboxBacklogDoesNotDeadlock(t *testing.T) {
	// T must outlast draining the flood: the post-flood VoteReqs queue
	// behind ~20k CopyResp events in the peer mailboxes, and a vote-phase
	// timeout would abort the transaction (a liveness test shouldn't hinge
	// on drain speed).
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, Seed: 9, TimeoutBase: 300 * time.Millisecond})
	defer cl.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n := cl.Node(1)
		for i := 0; i < 20000; i++ {
			n.post(event{env: &msg.Envelope{From: 2, To: 1, Msg: msg.CopyReq{Item: "x"}}})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("mailbox flood blocked the poster")
	}
	// The node is still alive and serving after the flood.
	txn := cl.Begin(1, types.Writeset{{Item: "x", Value: 5}})
	if got := cl.WaitOutcome(txn, 5*time.Second); got != types.OutcomeCommitted {
		t.Fatalf("post-flood transaction = %v", got)
	}
}

// TestLiveWaitOutcomeWakesOnDecision is the WaitOutcome regression test:
// waiters are notified per transaction instead of sleep-polling, so a
// decided transaction returns well before a generous deadline, and
// concurrent waiters all see it.
func TestLiveWaitOutcomeWakesOnDecision(t *testing.T) {
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, Seed: 10, TimeoutBase: 30 * time.Millisecond})
	defer cl.Stop()
	txn := cl.Begin(1, types.Writeset{{Item: "x", Value: 3}})
	results := make(chan types.Outcome, 4)
	start := time.Now()
	for i := 0; i < 4; i++ {
		go func() { results <- cl.WaitOutcome(txn, 30*time.Second) }()
	}
	for i := 0; i < 4; i++ {
		if got := <-results; got != types.OutcomeCommitted {
			t.Fatalf("waiter %d outcome = %v", i, got)
		}
	}
	// The commit itself takes a few timeout units; 30s minus slack proves
	// the waiters woke on notification rather than deadline.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("waiters took %v, deadline-bound rather than notification-woken", elapsed)
	}
}

// TestLiveWaitOutcomeDeadlineIsExact: with no decision coming, WaitOutcome
// honors the requested deadline (timer-based) instead of quantizing to a
// poll interval, and reports the aggregate at that instant.
func TestLiveWaitOutcomeDeadlineIsExact(t *testing.T) {
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, Seed: 11, TimeoutBase: 30 * time.Millisecond})
	defer cl.Stop()
	// Transaction 999 does not exist: nothing will ever decide it.
	start := time.Now()
	got := cl.WaitOutcome(types.TxnID(999), 50*time.Millisecond)
	elapsed := time.Since(start)
	if got != types.OutcomeUnknown {
		t.Fatalf("undecidable txn outcome = %v, want unknown", got)
	}
	if elapsed < 50*time.Millisecond {
		t.Fatalf("WaitOutcome returned after %v, before the %v deadline", elapsed, 50*time.Millisecond)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("WaitOutcome overshot the deadline by %v", elapsed-50*time.Millisecond)
	}
	// The watch entry must not outlive the wait: an unnotified transaction
	// would otherwise leak one map entry per WaitOutcome call forever.
	cl.noteMu.Lock()
	leaked := len(cl.notes)
	cl.noteMu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d outcome watch entries leaked after WaitOutcome returned", leaked)
	}
}

// TestLiveRestartPullsWrittenOnly: a restarted site's anti-entropy asks
// its peers about the items some commit wrote, not about every item it holds
// — the bound voting.Tracker.RestartPulls gives both hosts — and the copy
// that fell behind while the site was down still converges.
func TestLiveRestartPullsWrittenOnly(t *testing.T) {
	const items, commits = 64, 5
	cfgs := make([]voting.ItemConfig, items)
	for i := range cfgs {
		cfgs[i] = voting.Uniform(types.ItemID(fmt.Sprintf("i%02d", i)), 2, 2, 1, 2, 3)
	}
	tap := &tapTransport{Transport: inproc.New(inproc.Options{MinDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, Seed: 5})}
	cl := New(Config{
		Assignment: voting.MustAssignment(cfgs...), Spec: core.Spec{Variant: core.Protocol1},
		TimeoutBase: 30 * time.Millisecond, Transport: tap,
	})
	defer cl.Stop()
	written := make(map[types.ItemID]bool)
	for i := 0; i < commits; i++ {
		item := cfgs[i*7].Item
		written[item] = true
		txn := cl.Begin(1, types.Writeset{{Item: item, Value: int64(100 + i)}})
		if got := cl.WaitOutcome(txn, 5*time.Second); got != types.OutcomeCommitted {
			t.Fatalf("commit %d: %v", i, got)
		}
	}
	agree := func() bool {
		for _, ic := range cfgs {
			a, _ := cl.Node(1).Store().Read(ic.Item)
			b, _ := cl.Node(3).Store().Read(ic.Item)
			if a != b {
				return false
			}
		}
		return true
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("the commits to apply at site 3", agree)

	// Site 3 goes down and loses a write it had (its copy is reset by hand —
	// the commit protocols do not commit past a down participant).
	cl.Crash(3)
	stale := cfgs[7].Item
	cl.Node(3).Store().Init(stale, 0)
	tap.mu.Lock()
	before := len(tap.sent)
	tap.mu.Unlock()
	cl.Restart(3)
	waitFor("site 3 to catch up", agree)

	tap.mu.Lock()
	defer tap.mu.Unlock()
	asked := 0
	for _, env := range tap.sent[before:] {
		if req, ok := env.Msg.(msg.CopyReq); ok && env.From == 3 {
			asked++
			if !written[req.Item] {
				t.Errorf("restart asked about %q, which no commit wrote", req.Item)
			}
		}
	}
	if want := commits * 2; asked != want {
		t.Errorf("restart sent %d CopyReq, want %d (%d written items x 2 peers; %d items held)", asked, want, commits, items)
	}
}

// TestLiveTerminationStageBudget is the wall-clock twin of the engine's
// TestTerminationStageBudget, in the coordcrash_term benchmark's shape: five
// sites, the item everywhere, majority quorums, T = 20 ms, and the coordinator
// (site 3, so that site 1 wins the election at once) crashed with the
// transaction in doubt at every survivor. The survivors owe 3 T patience +
// 2 T for the dead site's silence in the poll + a handful of hops, and the
// restarted coordinator 3 T patience + the answer to its election call; the
// bounds leave a T of slack for the scheduler, and a cycle that lost it to a
// stall is retried — what is asserted is what the protocol needs, not what a
// loaded machine adds.
func TestLiveTerminationStageBudget(t *testing.T) {
	const (
		T     = 20 * time.Millisecond
		coord = types.SiteID(3)
	)
	sites := []types.SiteID{1, 2, 3, 4, 5}
	cl := New(Config{
		Assignment: voting.MustAssignment(voting.Uniform("x", 3, 3, sites...)), Spec: core.Spec{Variant: core.Protocol1},
		MinDelay: 500 * time.Microsecond, MaxDelay: time.Millisecond, TimeoutBase: T, Seed: 11,
	})
	defer cl.Stop()
	terminal := func(o types.Outcome) bool { return o == types.OutcomeCommitted || o == types.OutcomeAborted }
	inT := func(d time.Duration) float64 { return float64(d) / float64(T) }

	var report []string
	for cycle := 1; cycle <= 4; cycle++ {
		txn := cl.Begin(coord, types.Writeset{{Item: "x", Value: int64(cycle)}})
		// Crash as soon as every survivor has voted: the votes are on their
		// way back, the decision a round trip away at the least.
		voted := func() bool {
			for _, s := range sites {
				if s != coord && cl.OutcomeAt(s, txn) == types.OutcomeUnknown {
					return false
				}
			}
			return true
		}
		for deadline := time.Now().Add(time.Second); !voted(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: survivors never voted", cycle)
			}
		}
		crashed := time.Now()
		cl.Crash(coord)
		inDoubt := false
		for _, s := range sites {
			inDoubt = inDoubt || (s != coord && !terminal(cl.OutcomeAt(s, txn)))
		}
		got := cl.WaitOutcome(txn, 20*T)
		survivors := time.Since(crashed)
		if !terminal(got) || cl.Violated(txn) {
			t.Fatalf("cycle %d: survivors reached %v (violated=%v)", cycle, got, cl.Violated(txn))
		}

		restarted := time.Now()
		cl.Restart(coord)
		for deadline := restarted.Add(20 * T); cl.OutcomeAt(coord, txn) != got; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: restarted coordinator at %v, survivors %v", cycle, cl.OutcomeAt(coord, txn), got)
			}
		}
		rejoin := time.Since(restarted)
		report = append(report, fmt.Sprintf("cycle %d: in doubt %v, survivors %.2f T, rejoin %.2f T", cycle, inDoubt, inT(survivors), inT(rejoin)))
		if inDoubt && survivors < 6*T && rejoin < 4*T {
			t.Log(report[len(report)-1])
			return
		}
	}
	t.Errorf("no cycle terminated within 6 T and rejoined within 4 T:\n%s", strings.Join(report, "\n"))
}
