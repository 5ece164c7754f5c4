package live

import (
	"sync"
	"testing"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/msg"
	"qcommit/internal/transport"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// handTransport keeps every envelope it is handed, for the test to deliver
// by hand; nothing runs on its own. Send and the methods below may race a
// running node; the tests that drive a node by hand read sent directly.
type handTransport struct {
	transport.Topology
	mu   sync.Mutex
	sent []msg.Envelope
}

func (t *handTransport) Bind(transport.Handler) {}
func (t *handTransport) Close() error           { return nil }
func (t *handTransport) Send(env msg.Envelope) {
	t.mu.Lock()
	t.sent = append(t.sent, env)
	t.mu.Unlock()
}
func (t *handTransport) pop() (msg.Envelope, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sent) == 0 {
		return msg.Envelope{}, false
	}
	env := t.sent[0]
	t.sent = t.sent[1:]
	return env, true
}

// voteReqTo reports whether a VOTE-REQ for txn to site to has gone out.
func (t *handTransport) voteReqTo(to types.SiteID, txn types.TxnID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, env := range t.sent {
		if req, ok := env.Msg.(msg.VoteReq); ok && env.To == to && req.Txn == txn {
			return true
		}
	}
	return false
}

// TestLiveCommitPublishedAfterApply pins the order "force COMMIT, then act
// on it" as an outside observer sees it: a site's outcome view reads
// committed only once the event that decided the commit has applied the
// writeset. One node on a MemLog is driven by hand — no goroutines, no
// timers firing — through a one-site commit: each event is the event loop's
// dispatch plus finishEvent, and the flusher's release step runs between
// events.
func TestLiveCommitPublishedAfterApply(t *testing.T) {
	tr := &handTransport{}
	h := &hostCore{
		spec:  core.Spec{Variant: core.Protocol1},
		asgn:  voting.MustAssignment(voting.Uniform("x", 1, 1, 1)),
		t:     time.Hour, // no protocol timer fires while the test runs
		start: time.Now(),
		tr:    tr,
		notes: make(map[types.TxnID]*outcomeNote),
	}
	n := newNode(1, h, nil, wal.NewMemLog(), nil)
	n.store.Init("x", 0)
	event := func(env msg.Envelope) {
		n.dispatch(env)
		n.finishEvent()
	}
	release := func() {
		jobs := n.flushQ
		n.flushQ = nil
		for _, j := range jobs {
			n.release(j)
		}
	}

	const txn = types.TxnID(1)
	event(msg.Envelope{From: 1, To: 1, Msg: beginMsg{txn: txn, ws: types.Writeset{{Item: "x", Value: 42}}, participants: []types.SiteID{1}}})
	for {
		release()
		env, ok := tr.pop()
		if !ok {
			t.Fatal("the commit stalled before a decision")
		}
		event(env)
		if o, decided := n.k.Outcome(txn); decided {
			if o != types.OutcomeCommitted {
				t.Fatalf("decided %v, want committed", o)
			}
			break
		}
	}
	if got := walOutcome(n, txn); got == types.OutcomeCommitted {
		t.Fatal("the outcome view read committed as the deciding event returned, before the flusher released it")
	}
	release()
	if got := walOutcome(n, txn); got != types.OutcomeCommitted {
		t.Fatalf("after the release step the outcome view reads %v, want committed", got)
	}
	if v, err := n.store.Read("x"); err != nil || v.Value != 42 {
		t.Fatalf("x = %+v, %v after the commit was published, want 42", v, err)
	}
}

// TestLiveWaitOutcomeReportsSplit: up sites whose durable views disagree are
// a split, reported as such at once — not whichever terminal outcome map
// order meets first.
func TestLiveWaitOutcomeReportsSplit(t *testing.T) {
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, Seed: 1, TimeoutBase: 30 * time.Millisecond})
	defer cl.Stop()
	const txn = types.TxnID(999) // never begun: only the views below know it
	cl.Node(1).applyView([]wal.Record{{Type: wal.RecCommit, Txn: txn}})
	cl.Node(2).applyView([]wal.Record{{Type: wal.RecAbort, Txn: txn}})
	start := time.Now()
	if got := cl.WaitOutcome(txn, 10*time.Second); got != types.OutcomeSplit {
		t.Fatalf("WaitOutcome = %v, want %v", got, types.OutcomeSplit)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("WaitOutcome took %v: a split is settled, not a wait for the deadline", elapsed)
	}
	if !cl.Violated(txn) {
		t.Fatal("Violated = false for a commit at site 1 and an abort at site 2")
	}
}

// TestLiveOnlyForcedRecordsHoldBack pins the node's half of the durability
// table: an event's sends and outcome publication wait for the flusher only
// behind a forced record. Site 1 coordinates a transaction over sites 1 and
// 2 and is driven by hand: its VOTE-REQs leave in the Begin event (no
// BEGIN), its own yes vote waits for VOTED-YES, and after site 2's no vote
// the ABORT it applies reads aborted and reaches the waiters at the end of
// that event, with no flush job at all.
func TestLiveOnlyForcedRecordsHoldBack(t *testing.T) {
	tr := &handTransport{}
	h := &hostCore{
		spec:  core.Spec{Variant: core.Protocol1},
		asgn:  voting.MustAssignment(voting.Uniform("x", 2, 2, 1, 2)),
		t:     time.Hour, // no protocol timer fires while the test runs
		start: time.Now(),
		tr:    tr,
		notes: make(map[types.TxnID]*outcomeNote),
	}
	log := wal.NewMemLog()
	n := newNode(1, h, nil, log, nil)
	n.store.Init("x", 0)
	event := func(env msg.Envelope) {
		n.dispatch(env)
		n.finishEvent()
	}
	const txn = types.TxnID(1)
	kinds := func() []msg.Kind {
		var out []msg.Kind
		for _, env := range tr.sent {
			out = append(out, env.Msg.Kind())
		}
		tr.sent = nil
		return out
	}

	event(msg.Envelope{From: 1, To: 1, Msg: beginMsg{txn: txn, ws: types.Writeset{{Item: "x", Value: 1}}, participants: []types.SiteID{1, 2}}})
	if got := kinds(); len(got) != 2 || got[0] != msg.KindVoteReq || len(n.flushQ) != 0 || log.Len() != 0 {
		t.Fatalf("Begin sent %v, queued %d flush jobs and logged %d records; want two VOTE-REQs at once and nothing logged", got, len(n.flushQ), log.Len())
	}

	event(msg.Envelope{From: 1, To: 1, Msg: msg.VoteReq{Txn: txn, Coord: 1, Participants: []types.SiteID{1, 2}, Writeset: types.Writeset{{Item: "x", Value: 1}}}})
	if got := kinds(); len(got) != 0 || len(n.flushQ) != 1 {
		t.Fatalf("the yes vote went out as %v with %d flush jobs; want it held behind VOTED-YES", got, len(n.flushQ))
	}
	jobs := n.flushQ
	n.flushQ = nil
	for _, j := range jobs {
		n.release(j)
	}
	if got := kinds(); len(got) != 1 || got[0] != msg.KindVoteResp {
		t.Fatalf("release sent %v, want the yes vote", got)
	}

	event(msg.Envelope{From: 1, To: 1, Msg: msg.VoteResp{Txn: txn, Vote: types.VoteYes}})
	event(msg.Envelope{From: 2, To: 1, Msg: msg.VoteResp{Txn: txn, Vote: types.VoteNo}})
	if got := kinds(); len(got) != 2 || got[0] != msg.KindAbort {
		t.Fatalf("the no vote sent %v, want two ABORTs", got)
	}
	note := &outcomeNote{ch: make(chan struct{}), waiters: 1}
	h.notes[txn] = note
	event(msg.Envelope{From: 1, To: 1, Msg: msg.Abort{Txn: txn}})
	if len(n.flushQ) != 0 {
		t.Fatalf("the ABORT queued %d flush jobs, want none", len(n.flushQ))
	}
	if got := walOutcome(n, txn); got != types.OutcomeAborted {
		t.Errorf("the view reads %v at the end of the aborting event, want aborted", got)
	}
	select {
	case <-note.ch:
	default:
		t.Error("the waiter was not woken at the end of the aborting event")
	}
	if got := kinds(); len(got) != 0 {
		t.Errorf("the aborting event sent %v, want nothing", got)
	}
}
