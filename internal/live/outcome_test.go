package live

import (
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
// by hand; nothing runs on its own.
type handTransport struct {
	transport.Topology
	sent []msg.Envelope
}

func (t *handTransport) Bind(transport.Handler) {}
func (t *handTransport) Send(env msg.Envelope)  { t.sent = append(t.sent, env) }
func (t *handTransport) Close() error           { return nil }
func (t *handTransport) pop() (msg.Envelope, bool) {
	if len(t.sent) == 0 {
		return msg.Envelope{}, false
	}
	env := t.sent[0]
	t.sent = t.sent[1:]
	return env, true
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
