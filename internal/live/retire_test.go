package live

import (
	"sync"
	"testing"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/lockmgr"
	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/transport"
	"qcommit/internal/transport/inproc"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// tapTransport passes everything through and keeps a copy of what the fabric
// delivers, so a test can read the answer to a message it injected.
type tapTransport struct {
	transport.Transport
	mu  sync.Mutex
	got []msg.Envelope
}

func (t *tapTransport) Bind(h transport.Handler) {
	t.Transport.Bind(func(env msg.Envelope) {
		t.mu.Lock()
		t.got = append(t.got, env)
		t.mu.Unlock()
		h(env)
	})
}

// await polls until a delivered envelope satisfies match.
func (t *tapTransport) await(tb testing.TB, what string, match func(msg.Envelope) bool) {
	tb.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		t.mu.Lock()
		for _, env := range t.got {
			if match(env) {
				t.mu.Unlock()
				return
			}
		}
		t.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	tb.Fatalf("never saw %s", what)
}

// TestTerminalTxnRetired pins what a node keeps of a transaction that has
// terminated: the outcome, and nothing else.
func TestTerminalTxnRetired(t *testing.T) {
	t.Run("cluster", testRetiredOnCluster)
	t.Run("timers stopped", testRetireStopsTimers)
	t.Run("coordinator outlives its own no vote", testCoordinatorOutlivesOwnNoVote)
}

func testRetiredOnCluster(t *testing.T) {
	const (
		T       = 100 * time.Millisecond
		inDoubt = types.TxnID(900) // voted yes at site 3 in an earlier life, never decided
	)
	sites := []types.SiteID{1, 2, 3}
	asg := voting.MustAssignment(
		voting.Uniform("x", 2, 2, sites...),
		voting.Uniform("y", 2, 2, sites...),
		voting.Uniform("z", 2, 2, sites...),
	)
	log3 := wal.NewMemLog()
	_ = log3.Append(wal.Record{Type: wal.RecVotedYes, Txn: inDoubt, Coord: 1,
		Participants: sites, Writeset: types.Writeset{{Item: "y", Value: 1}}})
	tap := &tapTransport{Transport: inproc.New(inproc.Options{MinDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, Seed: 13})}
	cl := New(Config{
		Assignment: asg, Spec: core.Spec{Variant: core.Protocol1}, TimeoutBase: T, Transport: tap,
		WAL: func(id types.SiteID) wal.Log {
			if id == 3 {
				return log3
			}
			return nil
		},
	})
	stopped := false
	defer func() {
		if !stopped {
			cl.Stop()
		}
	}()

	// A foreign holder of z makes one site vote no: at site 2 the coordinator
	// (site 1) hears the refusal from a peer, at site 1 from its own
	// participant — which terminates site 1 before its coordinator has acted.
	const foreign = types.TxnID(5000)
	want := make(map[types.TxnID]types.Outcome)
	for round := 0; round < 10; round++ {
		commit := cl.Begin(types.SiteID(1+round%3), types.Writeset{{Item: "x", Value: int64(round)}})
		want[commit] = types.OutcomeCommitted
		blocker := types.SiteID(1 + round%2)
		if err := cl.Node(blocker).locks.TryAcquire(foreign, "z", lockmgr.Exclusive); err != nil {
			t.Fatal(err)
		}
		abort := cl.Begin(1, types.Writeset{{Item: "z", Value: int64(round)}})
		want[abort] = types.OutcomeAborted
		for txn, o := range map[types.TxnID]types.Outcome{commit: types.OutcomeCommitted, abort: types.OutcomeAborted} {
			// Two timeout units, not the 3T+ a participant left in doubt
			// would need: every site must hear the decision from the
			// coordinator, whoever voted no.
			if got := cl.WaitOutcome(txn, 2*T); got != o {
				t.Fatalf("round %d: %s = %v within 2T, want %v", round, txn, got, o)
			}
		}
		cl.Node(blocker).locks.ReleaseAll(foreign)
	}

	time.Sleep(3*T + T/2) // past every 2T and 3T timer armed above

	// Late questions about transactions long let go get the terminal answer.
	var committed, aborted types.TxnID
	for txn, o := range want {
		if o == types.OutcomeCommitted {
			committed = txn
		} else {
			aborted = txn
		}
	}
	cl.send(2, 1, msg.StateReq{Txn: committed, Coord: 2, Epoch: 77})
	tap.await(t, "StateResp(committed)", func(e msg.Envelope) bool {
		r, ok := e.Msg.(msg.StateResp)
		return ok && e.From == 1 && e.To == 2 && r.Txn == committed && r.Epoch == 77 && r.State == types.StateCommitted
	})
	cl.send(2, 3, msg.StateReq{Txn: aborted, Coord: 2, Epoch: 78})
	tap.await(t, "StateResp(aborted)", func(e msg.Envelope) bool {
		r, ok := e.Msg.(msg.StateResp)
		return ok && e.From == 3 && r.Txn == aborted && r.Epoch == 78 && r.State == types.StateAborted
	})
	cl.send(3, 2, msg.DecisionReq{Txn: committed})
	tap.await(t, "DecisionResp(commit)", func(e msg.Envelope) bool {
		r, ok := e.Msg.(msg.DecisionResp)
		return ok && e.From == 2 && e.To == 3 && r.Txn == committed && r.Decision == types.DecisionCommit && !r.Uncommitted
	})
	cl.send(3, 1, msg.DecisionReq{Txn: aborted})
	tap.await(t, "DecisionResp(abort)", func(e msg.Envelope) bool {
		r, ok := e.Msg.(msg.DecisionResp)
		return ok && e.From == 1 && e.To == 3 && r.Txn == aborted && r.Decision == types.DecisionAbort && !r.Uncommitted
	})

	// Crash and restart site 3: recovery resumes the one transaction its log
	// leaves in doubt — locks re-taken, participant running — and none of
	// the twenty it knows to be over.
	if got := cl.OutcomeAt(3, inDoubt); got != types.OutcomeBlocked {
		t.Fatalf("in-doubt txn reads %v before the restart, want blocked", got)
	}
	cl.Crash(3)
	cl.Restart(3)
	deadline := time.Now().Add(2 * T)
	for !cl.Node(3).locks.LockedBy(inDoubt, "y") {
		if time.Now().After(deadline) {
			t.Fatal("restart did not re-lock the in-doubt transaction's copy")
		}
		time.Sleep(time.Millisecond)
	}
	// Nobody else has heard of it, so its termination round aborts it.
	deadline = time.Now().Add(20 * T)
	for cl.OutcomeAt(3, inDoubt) != types.OutcomeAborted {
		if time.Now().After(deadline) {
			t.Fatalf("in-doubt txn = %v, want aborted by the termination protocol", cl.OutcomeAt(3, inDoubt))
		}
		time.Sleep(5 * time.Millisecond)
	}
	want[inDoubt] = types.OutcomeAborted
	time.Sleep(3*T + T/2)

	// Stop waits for the node goroutines, so their state is ours to read.
	cl.Stop()
	stopped = true
	for _, id := range sites {
		n := cl.Node(id)
		for txn, c := range n.txns {
			t.Errorf("site %d still holds a context for %s (terminal=%v, %d timers)", id, txn, c.terminal(), len(c.timers))
		}
		for txn, o := range want {
			if txn == inDoubt && id != 3 {
				continue
			}
			if got, ok := n.done[txn]; !ok || got != o {
				t.Errorf("site %d remembers %s as %v (known=%v), want %v", id, txn, got, ok, o)
			}
		}
		if held := n.locks.HeldCount(); held != 0 {
			t.Errorf("site %d still holds %d locks", id, held)
		}
	}
}

// loopHost hosts one Node with no goroutines behind it: sends are queued for
// the test to deliver by hand, and T is an hour, so a timer that is not
// pending was stopped, never fired.
type loopHost struct {
	sp   protocol.Spec
	asg  *voting.Assignment
	t0   time.Time
	sent []msg.Envelope
}

func (h *loopHost) spec() protocol.Spec            { return h.sp }
func (h *loopHost) assignment() *voting.Assignment { return h.asg }
func (h *loopHost) timeoutBase() time.Duration     { return time.Hour }
func (h *loopHost) maxTermRounds() int             { return 3 }
func (h *loopHost) startTime() time.Time           { return h.t0 }
func (h *loopHost) send(from, to types.SiteID, m msg.Message) {
	h.sent = append(h.sent, msg.Envelope{From: from, To: to, Msg: m})
}
func (h *loopHost) notifyOutcome(types.TxnID)               {}
func (h *loopHost) noteCommitApplied(*Node, *txnCtx)        {}
func (h *loopHost) maybeResolve(types.ItemID, types.SiteID) {}
func (h *loopHost) maybeRejoin(types.ItemID, types.SiteID)  {}

// newLoopNode builds site 1 of a two-site assignment of item x under QC1.
func newLoopNode() (*Node, *loopHost) {
	h := &loopHost{
		sp:  core.Spec{Variant: core.Protocol1},
		asg: voting.MustAssignment(voting.Uniform("x", 1, 2, 1, 2)),
		t0:  time.Now(),
	}
	n := newNode(1, h, nil, 0, nil)
	n.store.Init("x", 0)
	return n, h
}

// pump delivers queued envelopes in order until the queue is empty or the
// next one satisfies stop. Site 1 is the node; site 2 is played by hand: it
// votes yes and acknowledges, and keeps quiet otherwise.
func (h *loopHost) pump(n *Node, stop func(msg.Envelope) bool) {
	for len(h.sent) > 0 {
		e := h.sent[0]
		if stop != nil && stop(e) {
			return
		}
		h.sent = h.sent[1:]
		if e.To == 1 {
			n.dispatch(e)
			n.finishEvent()
			continue
		}
		switch m := e.Msg.(type) {
		case msg.VoteReq:
			h.send(2, 1, msg.VoteResp{Txn: m.Txn, Vote: types.VoteYes})
		case msg.PrepareToCommit:
			h.send(2, 1, msg.PCAck{Txn: m.Txn})
		}
	}
}

func begin(n *Node, txn types.TxnID) {
	n.dispatch(msg.Envelope{From: 1, To: 1, Msg: beginMsg{txn: txn,
		ws: types.Writeset{{Item: "x", Value: 7}}, participants: []types.SiteID{1, 2}}})
	n.finishEvent()
}

func testRetireStopsTimers(t *testing.T) {
	n, h := newLoopNode()
	begin(n, 1)
	h.pump(n, func(e msg.Envelope) bool {
		_, isCommit := e.Msg.(msg.Commit)
		return isCommit && e.To == 1
	})
	c := n.txns[1]
	if c == nil || len(h.sent) == 0 {
		t.Fatal("commit decision never reached the coordinator's own participant")
	}
	timers := c.timers
	if len(timers) < 4 { // coordinator: votes, acks; participant: after the vote, after PC
		t.Fatalf("%d timers armed before the decision, want at least 4", len(timers))
	}
	h.pump(n, nil)
	if len(n.txns) != 0 || n.done[1] != types.OutcomeCommitted {
		t.Fatalf("after the commit: %d contexts, outcome %v", len(n.txns), n.done[1])
	}
	for i, tm := range timers {
		if tm.Stop() {
			t.Errorf("timer %d was still pending after the transaction was let go", i)
		}
	}
	if held := n.locks.HeldCount(); held != 0 {
		t.Errorf("%d locks still held", held)
	}
}

func testCoordinatorOutlivesOwnNoVote(t *testing.T) {
	n, h := newLoopNode()
	if err := n.locks.TryAcquire(99, "x", lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	begin(n, 2)
	// Deliver the VOTE-REQ to the node's own participant, which must refuse.
	h.pump(n, func(e msg.Envelope) bool {
		_, isVote := e.Msg.(msg.VoteResp)
		return isVote && e.From == 1
	})
	if n.done[2] != types.OutcomeAborted {
		t.Fatalf("own participant could not lock x, yet outcome = %v", n.done[2])
	}
	c := n.txns[2]
	if c == nil || c.auto[protocol.RoleCoordinator] == nil {
		t.Fatal("coordinator was let go before it read its own participant's no vote")
	}
	if c.auto[protocol.RoleParticipant] != nil {
		t.Error("participant survived its own abort")
	}
	// The coordinator now reads the vote, decides and tells site 2.
	var toldPeer bool
	h.pump(n, func(e msg.Envelope) bool {
		if _, isAbort := e.Msg.(msg.Abort); isAbort && e.To == 2 {
			toldPeer = true
		}
		return false
	})
	if !toldPeer {
		t.Error("coordinator never sent ABORT to site 2")
	}
	if len(n.txns) != 0 {
		t.Errorf("%d contexts left after the coordinator finished", len(n.txns))
	}
}
