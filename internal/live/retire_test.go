package live

import (
	"sync"
	"testing"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/lockmgr"
	"qcommit/internal/msg"
	"qcommit/internal/obs"
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

	// A foreign holder of z dooms the round's transaction on z. At site 2 it
	// makes site 2 vote no, and the coordinator (site 1) hears the refusal
	// from a peer. At site 1 the coordinator finds its own copy locked and
	// aborts at Begin: no VOTE-REQ leaves, so sites 2 and 3 never hear of it.
	const foreign = types.TxnID(5000)
	want := make(map[types.TxnID]types.Outcome)
	atBegin := make(map[types.TxnID]bool)
	var votedNo, abortedAtBegin types.TxnID // one abort of each kind
	for round := 0; round < 10; round++ {
		commit := cl.Begin(types.SiteID(1+round%3), types.Writeset{{Item: "x", Value: int64(round)}})
		want[commit] = types.OutcomeCommitted
		blocker := types.SiteID(1 + round%2)
		if err := cl.Node(blocker).locks.TryAcquire(foreign, "z", lockmgr.Exclusive); err != nil {
			t.Fatal(err)
		}
		abort := cl.Begin(1, types.Writeset{{Item: "z", Value: int64(round)}})
		want[abort] = types.OutcomeAborted
		if blocker == 1 {
			atBegin[abort], abortedAtBegin = true, abort
		} else {
			votedNo = abort
		}
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
	var committed types.TxnID
	for txn, o := range want {
		if o == types.OutcomeCommitted {
			committed = txn
		}
	}
	aborted := votedNo
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
	cl.send(3, 2, msg.StateReq{Txn: committed, Coord: 3, Epoch: 81})
	tap.await(t, "StateResp(committed) from a participant", func(e msg.Envelope) bool {
		r, ok := e.Msg.(msg.StateResp)
		return ok && e.From == 2 && e.To == 3 && r.Txn == committed && r.Epoch == 81 && r.State == types.StateCommitted
	})
	cl.send(3, 1, msg.StateReq{Txn: aborted, Coord: 3, Epoch: 82})
	tap.await(t, "StateResp(aborted) from the coordinator", func(e msg.Envelope) bool {
		r, ok := e.Msg.(msg.StateResp)
		return ok && e.From == 1 && e.To == 3 && r.Txn == aborted && r.Epoch == 82 && r.State == types.StateAborted
	})
	// A transaction aborted at Begin: its coordinator has the outcome, and
	// site 3, which never voted on it, is still in the initial state.
	cl.send(2, 1, msg.StateReq{Txn: abortedAtBegin, Coord: 2, Epoch: 79})
	tap.await(t, "StateResp(aborted) for the Begin abort", func(e msg.Envelope) bool {
		r, ok := e.Msg.(msg.StateResp)
		return ok && e.From == 1 && r.Txn == abortedAtBegin && r.Epoch == 79 && r.State == types.StateAborted
	})
	cl.send(2, 3, msg.StateReq{Txn: abortedAtBegin, Coord: 2, Epoch: 80})
	tap.await(t, "StateResp(initial) for the Begin abort", func(e msg.Envelope) bool {
		r, ok := e.Msg.(msg.StateResp)
		return ok && e.From == 3 && r.Txn == abortedAtBegin && r.Epoch == 80 && r.State == types.StateInitial
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
			if atBegin[txn] && id != 1 {
				if got, ok := n.k.Outcome(txn); ok {
					t.Errorf("site %d knows %s, aborted at Begin at site 1, as %v", id, txn, got)
				}
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

// TestBeginAbortSendsNothing pins the live side of the abort before phase 1:
// a transaction whose coordinator's own copy is locked puts no frame on the
// wire, WaitOutcome reads it aborted well within T, and /metrics counts it
// apart from the aborts that cost a round.
func TestBeginAbortSendsNothing(t *testing.T) {
	const T = time.Second
	tap := &tapTransport{Transport: inproc.New(inproc.Options{MinDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, Seed: 7})}
	ob := &obs.Observer{Registry: obs.NewRegistry()}
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, TimeoutBase: T, Transport: tap, Obs: ob})
	defer cl.Stop()

	if err := cl.Node(1).locks.TryAcquire(5000, "x", lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	txn := cl.Begin(1, types.Writeset{{Item: "x", Value: 1}})
	if got := cl.WaitOutcome(txn, T); got != types.OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted", got)
	}
	if took := time.Since(start); took > T/4 {
		t.Errorf("WaitOutcome took %v, want well within T = %v", took, T)
	}
	time.Sleep(10 * time.Millisecond) // anything the abort sent has been handed to the fabric by now
	tap.mu.Lock()
	for _, e := range tap.sent {
		if msg.TxnOf(e.Msg) == txn {
			t.Errorf("frame on the wire: %s → %s %T", e.From, e.To, e.Msg)
		}
	}
	tap.mu.Unlock()
	snap := ob.Reg().Snapshot()
	for name, want := range map[string]uint64{
		"qcommit_txns_begun_total":         1,
		"qcommit_txns_begin_aborted_total": 1,
		"qcommit_txns_aborted_total":       1,
	} {
		if got := obs.SumCounters(snap, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
