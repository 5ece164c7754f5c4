package live

import (
	"sync"
	"testing"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/lockmgr"
	"qcommit/internal/msg"
	"qcommit/internal/transport"
	"qcommit/internal/transport/inproc"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// tapTransport passes everything through and keeps a copy of what the fabric
// is handed and of what it delivers, so a test can count what a site emitted
// and read the answer to a message it injected.
type tapTransport struct {
	transport.Transport
	mu   sync.Mutex
	sent []msg.Envelope
	got  []msg.Envelope
}

func (t *tapTransport) Send(env msg.Envelope) {
	t.mu.Lock()
	t.sent = append(t.sent, env)
	t.mu.Unlock()
	t.Transport.Send(env)
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
// terminated: the outcome, and nothing else. (The hand-pumped cases — timers
// stopped, the coordinator outliving its own no vote — moved to package site
// with the code they pin.)
func TestTerminalTxnRetired(t *testing.T) {
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
		if live := n.k.Len(); live != 0 {
			t.Errorf("site %d still holds %d contexts", id, live)
		}
		for txn, o := range want {
			if txn == inDoubt && id != 3 {
				continue
			}
			if got, ok := n.k.Outcome(txn); !ok || got != o {
				t.Errorf("site %d remembers %s as %v (known=%v), want %v", id, txn, got, ok, o)
			}
		}
		if held := n.locks.HeldCount(); held != 0 {
			t.Errorf("site %d still holds %d locks", id, held)
		}
	}
}
