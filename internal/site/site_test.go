package site

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/lockmgr"
	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/protocol"
	"qcommit/internal/sim"
	"qcommit/internal/storage"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// fakeTimer is a host timer the test fires by hand.
type fakeTimer struct {
	t       Timer
	d       sim.Duration
	stopped bool
}

func (t *fakeTimer) Stop() bool {
	was := !t.stopped
	t.stopped = true
	return was
}

type observed struct {
	txn types.TxnID
	ev  Event
	at  types.SiteID
}

// fakeHost hosts one Kernel with nothing behind it — no goroutines, no
// clock, no network: sends are queued for the test to deliver by hand, timers
// fire only when the test fires them, and everything the kernel tells its
// host is kept for inspection. The host slot is a string, set at Begun, to
// show it rides with the context. It is also the voting.Peers behind the
// kernel's strategy tracker: every site is reachable, no other site is ever
// bound to apply a write, and site 2's copy sits at peerVersion.
type fakeHost struct {
	k *Kernel[string]

	sent    []msg.Envelope
	timers  []*fakeTimer
	log     []wal.Record
	decided map[types.TxnID]types.Outcome
	slotAt  map[types.TxnID]string // the slot as seen by Decided
	clashes []string
	refuse  map[types.TxnID]bool
	events  []observed
	traces  []string

	peerVersion uint64
}

func (h *fakeHost) Now() sim.Time { return 0 }
func (h *fakeHost) AfterFunc(d sim.Duration, t Timer) Stopper {
	ft := &fakeTimer{t: t, d: d}
	h.timers = append(h.timers, ft)
	return ft
}
func (h *fakeHost) Send(to types.SiteID, m msg.Message) {
	h.sent = append(h.sent, msg.Envelope{From: h.k.id, To: to, Msg: m})
}
func (h *fakeHost) Append(_ *Txn[string], rec wal.Record) { h.log = append(h.log, rec) }
func (h *fakeHost) Decided(c *Txn[string], o types.Outcome) {
	h.decided[c.ID] = o
	h.slotAt[c.ID] = c.X
}
func (h *fakeHost) Contradicted(txn types.TxnID, have types.Outcome) {
	h.clashes = append(h.clashes, fmt.Sprintf("%s stands %v", txn, have))
}
func (h *fakeHost) RefusesVote(txn types.TxnID) bool { return h.refuse[txn] }
func (h *fakeHost) Observe(c *Txn[string], ev Event, at types.SiteID) {
	if ev == Begun {
		c.X = "begun here"
	}
	h.events = append(h.events, observed{c.ID, ev, at})
}
func (h *fakeHost) Tracef(format string, args ...any) {
	h.traces = append(h.traces, fmt.Sprintf(format, args...))
}

func (h *fakeHost) Reachable(from, to types.SiteID) bool { return true }
func (h *fakeHost) Version(site types.SiteID, item types.ItemID) uint64 {
	if site != h.k.id {
		return h.peerVersion
	}
	v, _ := h.k.cfg.Store.Read(item)
	return v.Version
}
func (h *fakeHost) WillApply(types.SiteID, types.TxnID, types.ItemID) bool { return false }

func (h *fakeHost) count(ev Event) int {
	n := 0
	for _, o := range h.events {
		if o.ev == ev {
			n++
		}
	}
	return n
}

// take removes and returns the queued sends.
func (h *fakeHost) take() []msg.Envelope {
	out := h.sent
	h.sent = nil
	return out
}

// pending lists the armed timers not stopped since.
func (h *fakeHost) pending() []*fakeTimer {
	var out []*fakeTimer
	for _, t := range h.timers {
		if !t.stopped {
			out = append(out, t)
		}
	}
	return out
}

// newKernel builds site id of the assignment "x and y on sites 1 and 2" under
// QC1; site 3 holds no copy (a pure coordinator site).
func newKernel(id types.SiteID) (*Kernel[string], *fakeHost) {
	h := &fakeHost{
		decided: make(map[types.TxnID]types.Outcome),
		slotAt:  make(map[types.TxnID]string),
		refuse:  make(map[types.TxnID]bool),
	}
	store := storage.NewStore(id)
	if id != 3 {
		store.Init("x", 0)
		store.Init("y", 0)
	}
	asgn := voting.MustAssignment(voting.Uniform("x", 1, 2, 1, 2), voting.Uniform("y", 1, 2, 1, 2))
	h.k = New(id, Config{
		Spec:                 core.Spec{Variant: core.Protocol1},
		Assignment:           asgn,
		T:                    sim.Duration(1e9),
		MaxTerminationRounds: 3,
		Store:                store,
		Locks:                lockmgr.New(id),
		Tracker:              voting.NewTracker(asgn, voting.StrategyMissingWrites, h),
	}, h)
	return h.k, h
}

var (
	wsX   = types.Writeset{{Item: "x", Value: 7}}
	both  = []types.SiteID{1, 2}
	voteX = func(txn types.TxnID) msg.VoteReq {
		return msg.VoteReq{Txn: txn, Coord: 2, Participants: both, Writeset: wsX}
	}
)

func from(site types.SiteID, m msg.Message) msg.Envelope {
	return msg.Envelope{From: site, To: 1, Msg: m}
}

// pump delivers queued envelopes in order until the queue is empty or the
// next one satisfies stop. The kernel's own site receives its mail; site 2 is
// played by hand: it votes yes and acknowledges, and keeps quiet otherwise.
func (h *fakeHost) pump(stop func(msg.Envelope) bool) {
	for len(h.sent) > 0 {
		e := h.sent[0]
		if stop != nil && stop(e) {
			return
		}
		h.sent = h.sent[1:]
		if e.To == h.k.id {
			h.k.Handle(e)
			continue
		}
		switch m := e.Msg.(type) {
		case msg.VoteReq:
			h.sent = append(h.sent, msg.Envelope{From: e.To, To: h.k.id, Msg: msg.VoteResp{Txn: m.Txn, Vote: types.VoteYes}})
		case msg.PrepareToCommit:
			h.sent = append(h.sent, msg.Envelope{From: e.To, To: h.k.id, Msg: msg.PCAck{Txn: m.Txn}})
		}
	}
}

// voteOf returns the vote the kernel's site sent for txn, if any.
func voteOf(sent []msg.Envelope, txn types.TxnID) (types.Vote, bool) {
	for _, e := range sent {
		if r, ok := e.Msg.(msg.VoteResp); ok && r.Txn == txn {
			return r.Vote, true
		}
	}
	return 0, false
}

// TestDispatch walks every arm of the dispatch switch whose behaviour the
// kernel, not an automaton, decides.
func TestDispatch(t *testing.T) {
	t.Run("unknown StateReq: initial reply is a promise to vote no", func(t *testing.T) {
		k, h := newKernel(1)
		k.Handle(from(2, msg.StateReq{Txn: 5, Coord: 2, Epoch: 9}))
		sent := h.take()
		if len(sent) != 1 || sent[0].To != 2 || sent[0].Msg != (msg.StateResp{Txn: 5, Epoch: 9, State: types.StateInitial}) {
			t.Fatalf("reply = %+v, want StateResp{initial, epoch 9} to site 2", sent)
		}
		if k.Len() != 0 {
			t.Error("a poll about an unknown transaction created a context")
		}
		k.Handle(from(2, voteX(5)))
		if v, ok := voteOf(h.take(), 5); !ok || v != types.VoteNo {
			t.Fatalf("late VOTE-REQ answered %v (sent=%v), want a no vote", v, ok)
		}
		if o, _ := k.Outcome(5); o != types.OutcomeAborted {
			t.Errorf("outcome after the refused vote = %v, want aborted", o)
		}
		if k.cfg.Locks.HeldCount() != 0 {
			t.Error("the refused vote left locks behind")
		}
		if k.promised[5] {
			t.Error("the promise outlived the transaction it was about")
		}
	})

	t.Run("no promise, no refusal: the vote is yes", func(t *testing.T) {
		k, h := newKernel(1)
		k.Handle(from(2, voteX(7)))
		if v, ok := voteOf(h.take(), 7); !ok || v != types.VoteYes {
			t.Fatalf("VOTE-REQ answered %v (sent=%v), want yes", v, ok)
		}
		if !k.cfg.Locks.LockedBy(7, "x") || h.count(VoteRequested) != 1 || h.count(LocksTaken) != 1 {
			t.Errorf("yes vote: locked=%v events=%v", k.cfg.Locks.LockedBy(7, "x"), h.events)
		}
		k.cfg.Locks.ReleaseAll(7) // x is free again: only the host stands in 8's way
		h.refuse[8] = true
		k.Handle(from(2, voteX(8)))
		if v, _ := voteOf(h.take(), 8); v != types.VoteNo {
			t.Errorf("host-injected refusal answered %v, want no", v)
		}
	})

	t.Run("retired transaction: polls answered from the outcome, VOTE-REQ ignored", func(t *testing.T) {
		k, h := newKernel(1)
		k.Handle(from(2, voteX(10)))
		k.Handle(from(2, msg.Commit{Txn: 10}))
		k.Handle(from(2, voteX(11)))
		k.Handle(from(2, msg.Abort{Txn: 11}))
		h.take()
		if k.Len() != 0 || h.decided[10] != types.OutcomeCommitted || h.decided[11] != types.OutcomeAborted {
			t.Fatalf("setup: %d contexts, decided %v", k.Len(), h.decided)
		}
		if v, _ := k.cfg.Store.Read("x"); v.Value != 7 || v.Version != 11 {
			t.Errorf("commit applied x=%d@%d, want 7@11", v.Value, v.Version)
		}
		// The tracker heard of the one applied commit: it reached this site
		// only, so site 2 carries a missing write.
		if missing := k.cfg.Tracker.MissingAt("x"); len(missing) != 1 || missing[0] != 2 {
			t.Errorf("tracker after the commit: missing at %v, want [site2]", missing)
		}
		k.Handle(from(2, msg.StateReq{Txn: 10, Epoch: 1}))
		k.Handle(from(2, msg.StateReq{Txn: 11, Epoch: 2}))
		want := []msg.Message{
			msg.StateResp{Txn: 10, Epoch: 1, State: types.StateCommitted},
			msg.StateResp{Txn: 11, Epoch: 2, State: types.StateAborted},
		}
		sent := h.take()
		if len(sent) != len(want) {
			t.Fatalf("replies = %+v", sent)
		}
		for i, e := range sent {
			if e.Msg != want[i] {
				t.Errorf("reply %d = %+v, want %+v", i, e.Msg, want[i])
			}
		}
		if len(k.promised) != 0 {
			t.Error("a poll about a finished transaction recorded a promise")
		}
		appended := len(h.log)
		k.Handle(from(2, voteX(10)))
		if k.Len() != 0 || len(h.take()) != 0 || len(h.log) != appended {
			t.Error("VOTE-REQ for a retired transaction was not ignored")
		}
		if got := k.Terminated(); len(got) != 2 || got[0] != 10 || got[1] != 11 {
			t.Errorf("Terminated() = %v, want [TR10 TR11]", got)
		}
	})

	t.Run("retired transaction: an election call is answered with the outcome", func(t *testing.T) {
		k, h := newKernel(1)
		k.Handle(from(2, voteX(13)))
		k.Handle(from(2, msg.Commit{Txn: 13}))
		k.Handle(from(2, voteX(14)))
		k.Handle(from(2, msg.Abort{Txn: 14}))
		h.take()
		// Site 2 restarts in doubt about both and campaigns; the call gets the
		// decision itself rather than silence (and a 2T wait at the caller).
		k.Handle(from(2, msg.ElectionCall{Txn: 13, Ballot: 2, Candidate: 2}))
		k.Handle(from(2, msg.ElectionCall{Txn: 14, Ballot: 2, Candidate: 2}))
		sent := h.take()
		if len(sent) != 2 || sent[0].To != 2 || sent[0].Msg != (msg.Commit{Txn: 13}) || sent[1].To != 2 || sent[1].Msg != (msg.Abort{Txn: 14}) {
			t.Fatalf("replies = %+v, want COMMIT TR13 and ABORT TR14 to site 2", sent)
		}
		// The rest of the election vocabulary asks nothing and gets nothing.
		k.Handle(from(2, msg.ElectionOK{Txn: 13, Ballot: 2}))
		k.Handle(from(2, msg.CoordAnnounce{Txn: 14, Ballot: 2, Coord: 2}))
		if sent := h.take(); len(sent) != 0 {
			t.Errorf("ElectionOK / CoordAnnounce for a retired transaction answered: %+v", sent)
		}
		if k.Len() != 0 || len(h.pending()) != 0 {
			t.Errorf("election traffic for retired transactions left %d contexts, %d timers", k.Len(), len(h.pending()))
		}
	})

	t.Run("a decision the other way is reported, not applied", func(t *testing.T) {
		k, h := newKernel(1)
		k.Handle(from(2, voteX(12)))
		k.Handle(from(2, msg.Abort{Txn: 12}))
		appended := len(h.log)
		k.Handle(from(2, msg.Abort{Txn: 12})) // a repeat is not a contradiction
		k.Handle(from(2, msg.Commit{Txn: 12}))
		if len(h.clashes) != 1 || h.clashes[0] != "TR12 stands aborted" {
			t.Errorf("contradictions = %v, want one for T12", h.clashes)
		}
		if o, _ := k.Outcome(12); o != types.OutcomeAborted || len(h.log) != appended {
			t.Errorf("outcome %v, %d records appended after the first decision", o, len(h.log)-appended)
		}
	})

	t.Run("COMMIT and ABORT at a copy-less coordinator site", func(t *testing.T) {
		for _, tc := range []struct {
			m    msg.Message
			want types.Outcome
			rec  wal.RecType
		}{
			{msg.Commit{Txn: 20}, types.OutcomeCommitted, wal.RecCommit},
			{msg.Abort{Txn: 20}, types.OutcomeAborted, wal.RecAbort},
		} {
			k, h := newKernel(3)
			c := k.Begin(20, wsX, both)
			if c.X != "begun here" || c.Coord != 3 || h.count(Begun) != 1 {
				t.Fatalf("Begin: slot %q coord %d events %v", c.X, c.Coord, h.events)
			}
			if c.Automaton(protocol.RoleParticipant) != nil {
				t.Fatal("a site holding no copy got a participant")
			}
			// A rival termination coordinator decided first and tells us.
			k.Handle(msg.Envelope{From: 1, To: 3, Msg: tc.m})
			if h.decided[20] != tc.want || h.slotAt[20] != "begun here" {
				t.Errorf("%T: decided %v with slot %q", tc.m, h.decided[20], h.slotAt[20])
			}
			if last := h.log[len(h.log)-1]; last.Type != tc.rec {
				t.Errorf("%T: last record %v, want %v", tc.m, last.Type, tc.rec)
			}
			// The coordinator has not finished (votes outstanding): the
			// context stays until it has.
			if k.Txn(20) == nil {
				t.Errorf("%T: context let go while the coordinator still runs", tc.m)
			}
		}
	})

	t.Run("election: passive join costs no round, campaigns stop at the budget", func(t *testing.T) {
		k, h := newKernel(2)
		k.Handle(msg.Envelope{From: 1, To: 2, Msg: msg.VoteReq{Txn: 30, Coord: 1, Participants: []types.SiteID{1, 2, 3}, Writeset: wsX}})
		h.take()
		c := k.Txn(30)
		// Site 3 campaigns and calls us, the better candidate.
		k.Handle(msg.Envelope{From: 3, To: 2, Msg: msg.ElectionCall{Txn: 30, Ballot: 4<<32 | 3, Candidate: 3}})
		if c.elect == nil || c.rounds != 0 || h.count(TermRound) != 0 {
			t.Fatalf("passive join: elect=%v rounds=%d", c.elect != nil, c.rounds)
		}
		if c.nextEpoch != 5 {
			t.Errorf("joined at the caller's epoch 4, yet nextEpoch = %d", c.nextEpoch)
		}
		var okd bool
		for _, e := range h.take() {
			if _, ok := e.Msg.(msg.ElectionOK); ok && e.To == 3 {
				okd = true
			}
		}
		if !okd {
			t.Error("the better candidate did not answer the call")
		}
		// Now the participant itself asks for termination, again and again.
		env := k.env(c, protocol.RoleParticipant)
		for i := 0; i < 5; i++ {
			c.drop(protocol.RoleElection) // as if the round led nowhere
			env.RequestTermination(30)
		}
		if c.rounds != 3 || h.count(TermRound) != 3 {
			t.Errorf("rounds = %d, TermRound events = %d, want the budget of 3", c.rounds, h.count(TermRound))
		}
		if !k.ResetTermination(30) || c.rounds != 0 || c.elect != nil {
			t.Errorf("ResetTermination: rounds=%d elect=%v", c.rounds, c.elect != nil)
		}
		k.Campaign(30)
		if c.rounds != 1 || c.elect == nil {
			t.Errorf("Campaign after reset: rounds=%d elect=%v", c.rounds, c.elect != nil)
		}
		// No election traffic is entertained for unknown transactions.
		k.Handle(msg.Envelope{From: 3, To: 2, Msg: msg.ElectionCall{Txn: 31, Ballot: 3, Candidate: 3}})
		if k.Txn(31) != nil {
			t.Error("an election call created a context")
		}
	})

	t.Run("election without known participants elects self", func(t *testing.T) {
		k, _ := newKernel(1)
		c := k.Adopt(32, nil, nil, 0)
		k.Campaign(32)
		if c.elect == nil || !c.elect.Won() || c.Automaton(protocol.RoleTerminator) == nil {
			t.Error("a site that knows no peers did not elect itself")
		}
	})

	t.Run("Block is a trace annotation", func(t *testing.T) {
		k, h := newKernel(1)
		k.Handle(from(2, voteX(33)))
		k.env(k.Txn(33), protocol.RoleTerminator).Block(33)
		if n := len(h.traces); n == 0 || h.traces[n-1] != "TR33 BLOCKED (termination cannot form a quorum)" {
			t.Errorf("traces = %q", h.traces)
		}
	})

	t.Run("anti-entropy arms", func(t *testing.T) {
		k, h := newKernel(1)
		k.Handle(from(2, msg.CopyReq{Item: "x"}))
		if sent := h.take(); len(sent) != 1 || sent[0].Msg != (msg.CopyResp{Item: "x", Value: 0, Version: 1}) {
			t.Errorf("CopyReq answered %+v", sent)
		}
		k.Handle(from(2, voteX(34))) // x is now locked: its value may be about to change
		h.take()
		k.Handle(from(2, msg.CopyReq{Item: "x"}))
		k.Handle(from(2, msg.CopyReq{Item: "nope"}))
		if sent := h.take(); len(sent) != 0 {
			t.Errorf("locked or unknown copy served: %+v", sent)
		}
		// A commit applied at site 2 missed this site's copy; installing the
		// newest version resolves the missing write.
		h.peerVersion = 40
		k.cfg.Tracker.CommitApplied(2, 39, wsX)
		if missing := k.cfg.Tracker.MissingAt("x"); len(missing) != 1 || missing[0] != 1 {
			t.Fatalf("setup: missing at %v, want [site1]", missing)
		}
		k.Handle(from(2, msg.CopyResp{Item: "x", Value: 9, Version: 40}))
		if v, _ := k.cfg.Store.Read("x"); v.Value != 9 || v.Version != 40 || k.cfg.Tracker.ItemMode("x") != voting.Optimistic {
			t.Errorf("CopyResp: x=%d@%d, still missing at %v", v.Value, v.Version, k.cfg.Tracker.MissingAt("x"))
		}
	})
}

func TestTimerFencedByGenerationNeverFires(t *testing.T) {
	k, h := newKernel(1)
	k.Handle(from(2, voteX(40))) // yes vote arms the participant's patience timer
	c := k.Txn(40)
	if len(h.timers) != 1 {
		t.Fatalf("%d timers armed by the yes vote, want 1", len(h.timers))
	}
	stale := h.timers[0].t
	// Recovery-style reinstall: the role's generation moves on.
	k.Resume(c, &wal.TxnImage{Txn: 40, State: types.StateWait, Coord: 2, Participants: both, Writeset: wsX})
	fresh := h.timers[len(h.timers)-1].t
	if fresh.Gen == stale.Gen {
		t.Fatal("reinstalling the participant did not bump its generation")
	}
	h.take()
	k.Fire(stale)
	if h.count(TermRound) != 0 || len(h.take()) != 0 {
		t.Fatal("a timer armed under a superseded generation fired")
	}
	k.Fire(fresh) // the live one does: patience ran out, the site campaigns
	if h.count(TermRound) != 1 {
		t.Error("the current generation's timer did not fire")
	}
	// A timer set through a fenced env is not even armed.
	armed := len(h.timers)
	e := k.env(c, protocol.RoleParticipant)
	e.SetTimer(1, 99)
	c.drop(protocol.RoleParticipant)
	e.SetTimer(1, 99)
	if len(h.timers) != armed+1 {
		t.Errorf("%d timers armed, want exactly the one set before the fence", len(h.timers)-armed)
	}
}

// TestSuspectSet pins the rules of the per-transaction suspect set: who
// seeds a suspicion, what clears it, and that the fault-free path never
// builds one. Site 2 is a participant of a transaction coordinated by site 1
// with participants {1, 2, 3}, so site 1 is also the better election
// candidate site 2 would otherwise have to wait for.
func TestSuspectSet(t *testing.T) {
	trio := []types.SiteID{1, 2, 3}
	voted := func(t *testing.T, coord types.SiteID) (*Kernel[string], *fakeHost, *Txn[string]) {
		t.Helper()
		k, h := newKernel(2)
		k.Handle(msg.Envelope{From: coord, To: 2, Msg: msg.VoteReq{Txn: 70, Coord: coord, Participants: trio, Writeset: wsX}})
		if v, _ := voteOf(h.take(), 70); v != types.VoteYes {
			t.Fatalf("site 2 voted %v, want yes", v)
		}
		return k, h, k.Txn(70)
	}
	// patience fires the participant's pending patience timer.
	patience := func(t *testing.T, k *Kernel[string], h *fakeHost) {
		t.Helper()
		for _, ft := range h.pending() {
			if ft.t.Role == protocol.RoleParticipant {
				k.Fire(ft.t)
				return
			}
		}
		t.Fatal("no participant patience timer pending")
	}
	calls := func(sent []msg.Envelope, to types.SiteID) bool {
		for _, e := range sent {
			if _, ok := e.Msg.(msg.ElectionCall); ok && e.To == to {
				return true
			}
		}
		return false
	}

	t.Run("patience expiry seeds the coordinator", func(t *testing.T) {
		k, h, c := voted(t, 1)
		patience(t, k, h)
		if !c.coordSuspected || !k.env(c, protocol.RoleTerminator).Suspected(1) {
			t.Fatal("the silent coordinator is not suspected")
		}
		// The campaign does not call the suspect: with no better candidate
		// left, site 2 wins at once and polls.
		if calls(h.take(), 1) || c.elect == nil || !c.elect.Won() || c.Automaton(protocol.RoleTerminator) == nil {
			t.Errorf("campaign: called site 1 or did not win at once (won=%v)", c.elect != nil && c.elect.Won())
		}
		// Suspicion is volatile.
		k.Crash()
		if c.coordSuspected {
			t.Error("the suspicion survived the crash")
		}
	})

	t.Run("an ElectionCall from another site seeds it", func(t *testing.T) {
		k, h, c := voted(t, 1)
		k.Handle(msg.Envelope{From: 3, To: 2, Msg: msg.ElectionCall{Txn: 70, Ballot: 3, Candidate: 3}})
		if !c.coordSuspected {
			t.Fatal("the coordinator site 3 gave up on is not suspected")
		}
		sent := h.take()
		if calls(sent, 1) || c.elect == nil || !c.elect.Won() {
			t.Error("invited site 2 waited for the suspected coordinator")
		}
		// Called by the coordinator itself (say, restarted and campaigning):
		// the sender is never suspected.
		k, _, c = voted(t, 3)
		k.Handle(msg.Envelope{From: 3, To: 2, Msg: msg.ElectionCall{Txn: 70, Ballot: 3, Candidate: 3}})
		if c.coordSuspected {
			t.Error("the coordinator is suspected after a call from itself")
		}
	})

	t.Run("a frame from the suspect clears it", func(t *testing.T) {
		k, h, c := voted(t, 1)
		patience(t, k, h)
		h.take()
		k.Handle(msg.Envelope{From: 3, To: 2, Msg: msg.ElectionOK{Txn: 70, Ballot: 1}})
		if !c.coordSuspected {
			t.Fatal("a frame from site 3 cleared the suspicion of site 1")
		}
		k.Handle(msg.Envelope{From: 1, To: 2, Msg: msg.PrepareToCommit{Txn: 70}})
		if c.coordSuspected || k.env(c, protocol.RoleTerminator).Suspected(1) {
			t.Error("site 1 is still suspected after it spoke")
		}
	})

	t.Run("a site never suspects itself", func(t *testing.T) {
		k, h := newKernel(1)
		c := k.Begin(71, wsX, both)
		h.pump(func(e msg.Envelope) bool { _, ok := e.Msg.(msg.VoteResp); return ok })
		h.take() // the coordinator never hears the votes
		patience(t, k, h)
		k.Handle(msg.Envelope{From: 2, To: 1, Msg: msg.ElectionCall{Txn: 71, Ballot: 2, Candidate: 2}})
		if c.coordSuspected || k.env(c, protocol.RoleTerminator).Suspected(1) {
			t.Error("the coordinator suspects itself")
		}
	})

	t.Run("a fault-free commit suspects nobody", func(t *testing.T) {
		k, h := newKernel(1)
		c := k.Begin(72, wsX, both)
		h.pump(func(e msg.Envelope) bool { _, ok := e.Msg.(msg.Commit); return ok })
		if c.coordSuspected {
			t.Error("the coordinator is suspected on the fault-free path")
		}
		h.pump(nil)
		if o, _ := k.Outcome(72); o != types.OutcomeCommitted || c.coordSuspected {
			t.Errorf("outcome %v, coordinator suspected %v", o, c.coordSuspected)
		}
	})
}

// TestConflictVotesNoAtOnce pins the tree's one lock-conflict policy, the
// paper's: a participant that cannot lock every local copy it is asked to
// write votes no at once. Asked for {x, y} while another transaction holds
// y, the kernel takes x, is refused y, lets x go again and waits for
// nothing: no lock is left behind and no timer is armed.
func TestConflictVotesNoAtOnce(t *testing.T) {
	k, h := newKernel(1)
	locks := k.cfg.Locks
	reg := obs.NewRegistry()
	locks.SetMetrics(lockmgr.NewMetrics(reg, 1))
	if err := locks.TryAcquire(99, "y", lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	k.Handle(from(2, msg.VoteReq{Txn: 20, Coord: 2, Participants: both,
		Writeset: types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}}}))
	if v, ok := voteOf(h.take(), 20); !ok || v != types.VoteNo {
		t.Fatalf("VOTE-REQ over a held copy answered %v (sent=%v), want an immediate no", v, ok)
	}
	if o, _ := k.Outcome(20); o != types.OutcomeAborted {
		t.Errorf("outcome after the no vote = %v, want aborted", o)
	}
	if locks.HeldCount() != 1 || !locks.LockedBy(99, "y") || locks.Locked("x") {
		t.Errorf("after the refusal: %d locks held, y held by 99 = %v, x locked = %v; want 99's y alone",
			locks.HeldCount(), locks.LockedBy(99, "y"), locks.Locked("x"))
	}
	if got := locks.HeldItems(20); got != nil {
		t.Errorf("the refused transaction still holds %v", got)
	}
	// x was granted and released (one hold sample) and y refused (one
	// would-block): the kernel tried in writeset order and rolled back.
	snap := reg.Snapshot()
	holds := obs.MergeHistograms(snap, "qcommit_lock_hold_ns").Count
	if refused := obs.SumCounters(snap, "qcommit_lock_wouldblock_total"); holds != 1 || refused != 1 {
		t.Errorf("lock traffic: %d hold samples, %d would-blocks; want x taken and let go, y refused", holds, refused)
	}
	if n := len(h.pending()); n != 0 {
		t.Errorf("%d timers armed around a no vote, want none", n)
	}
	if h.count(LocksTaken) != 0 {
		t.Error("LocksTaken observed for a lock set that was refused")
	}
}

// TestLockCopiesWritesetWithRepeatedItem drives lockCopies over a writeset
// that writes x twice, straight from the VOTE-REQ's writeset: x is locked
// once, and when y is refused the rollback releases exactly the x this call
// took. Without the conflict the transaction holds x and y once each, in
// writeset order.
func TestLockCopiesWritesetWithRepeatedItem(t *testing.T) {
	ws := types.Writeset{{Item: "x", Value: 1}, {Item: "x", Value: 2}, {Item: "y", Value: 3}}
	k, h := newKernel(1)
	locks := k.cfg.Locks
	reg := obs.NewRegistry()
	locks.SetMetrics(lockmgr.NewMetrics(reg, 1))
	if err := locks.TryAcquire(99, "y", lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	k.Handle(from(2, msg.VoteReq{Txn: 21, Coord: 2, Participants: both, Writeset: ws}))
	if v, ok := voteOf(h.take(), 21); !ok || v != types.VoteNo {
		t.Fatalf("VOTE-REQ over a held y answered %v (sent=%v), want no", v, ok)
	}
	if locks.HeldCount() != 1 || !locks.LockedBy(99, "y") || locks.Locked("x") || locks.HeldItems(21) != nil {
		t.Errorf("after the refusal: %d held, 99 holds y = %v, x locked = %v, 21 holds %v; want 99's y alone",
			locks.HeldCount(), locks.LockedBy(99, "y"), locks.Locked("x"), locks.HeldItems(21))
	}
	snap := reg.Snapshot()
	holds := obs.MergeHistograms(snap, "qcommit_lock_hold_ns").Count
	if refused := obs.SumCounters(snap, "qcommit_lock_wouldblock_total"); holds != 1 || refused != 1 {
		t.Errorf("lock traffic: %d hold samples, %d would-blocks; want x taken once and let go, y refused once", holds, refused)
	}

	locks.ReleaseAll(99)
	k.Handle(from(2, msg.VoteReq{Txn: 22, Coord: 2, Participants: both, Writeset: ws}))
	if v, ok := voteOf(h.take(), 22); !ok || v != types.VoteYes {
		t.Fatalf("VOTE-REQ over free copies answered %v (sent=%v), want yes", v, ok)
	}
	if got := locks.HeldItems(22); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("22 holds %v, want [x y]", got)
	}
}

func TestCrashClearsPromisesAndStopsTimers(t *testing.T) {
	k, h := newKernel(1)
	k.Handle(from(2, msg.StateReq{Txn: 50})) // promise
	k.Begin(52, types.Writeset{{Item: "x", Value: 1}}, both)
	k.Handle(from(2, voteX(51))) // in doubt, patience timer armed; holds x
	h.take()
	if len(h.pending()) == 0 || !k.promised[50] {
		t.Fatal("setup armed no timers or recorded no promise")
	}
	k.Crash()
	if len(h.pending()) != 0 {
		t.Errorf("%d timers still pending after the crash", len(h.pending()))
	}
	if len(k.promised) != 0 {
		t.Error("the never-voted promise survived the crash")
	}
	for _, txn := range []types.TxnID{51, 52} {
		c := k.Txn(txn)
		if c == nil {
			t.Fatalf("%s: unterminated context dropped by the crash", txn)
		}
		for role := range c.auto {
			if c.auto[role] != nil {
				t.Errorf("%s: role %d survived the crash", txn, role)
			}
		}
	}
	for _, ft := range h.timers {
		k.Fire(ft.t)
	}
	if len(h.take()) != 0 {
		t.Error("a pre-crash timer still reached an automaton")
	}
	// The promise is gone with the rest of the volatile state: a VOTE-REQ
	// after the restart is judged afresh (once 51 no longer holds x).
	k.cfg.Locks.ReleaseAll(51)
	k.Handle(from(2, voteX(50)))
	if v, _ := voteOf(h.take(), 50); v != types.VoteYes {
		t.Errorf("vote after the crash = %v: the promise was not volatile", v)
	}
}

func TestRecoverResumesOnlyInDoubt(t *testing.T) {
	k, h := newKernel(1)
	voted := func(txn types.TxnID) wal.Record {
		return wal.Record{Type: wal.RecVotedYes, Txn: txn, Coord: 2, Participants: both, Writeset: wsX}
	}
	recs := []wal.Record{
		voted(63), {Type: wal.RecCommit, Txn: 63},
		voted(62), {Type: wal.RecAbort, Txn: 62},
		{Type: wal.RecVotedNo, Txn: 64},
		{Type: wal.RecBegin, Txn: 66, Coord: 1, Participants: []types.SiteID{2}, Writeset: wsX},
		voted(61), {Type: wal.RecPC, Txn: 61},
	}
	k.Recover(recs)
	for txn, want := range map[types.TxnID]types.Outcome{63: types.OutcomeCommitted, 62: types.OutcomeAborted, 64: types.OutcomeAborted} {
		if o, ok := k.Outcome(txn); !ok || o != want || k.Txn(txn) != nil {
			t.Errorf("%s: outcome %v (known=%v), context=%v; want %v and no context", txn, o, ok, k.Txn(txn) != nil, want)
		}
	}
	c := k.Txn(61)
	if c == nil || c.Automaton(protocol.RoleParticipant) == nil {
		t.Fatal("the in-doubt transaction was not resumed")
	}
	if st := c.Automaton(protocol.RoleParticipant).(interface{ State() types.State }).State(); st != types.StatePC {
		t.Errorf("resumed in state %v, want PC", st)
	}
	if !k.cfg.Locks.LockedBy(61, "x") || k.cfg.Locks.HeldCount() != 1 {
		t.Errorf("locks after recovery: 61 holds x = %v, %d held in all", k.cfg.Locks.LockedBy(61, "x"), k.cfg.Locks.HeldCount())
	}
	if len(c.Participants) != 2 || c.Coord != 2 || len(c.WS) != 1 {
		t.Errorf("resumed context = %+v", c)
	}
	// A pure coordinator that only logged BEGIN may have sent
	// PREPARE-TO-COMMIT already: it is known but has nothing running.
	if b := k.Txn(66); b == nil || b.auto != [numRoles]protocol.Automaton{} {
		t.Errorf("begin-only pure-coordinator transaction: %+v", b)
	}
	if len(h.decided) != 0 || len(h.log) != 0 {
		t.Errorf("recovery decided %v and logged %v, want nothing", h.decided, h.log)
	}
	if len(h.pending()) != 1 {
		t.Errorf("%d timers pending after recovery, want the resumed participant's one", len(h.pending()))
	}
	// Recovering again (a second restart) resumes the same one, once.
	k.Crash()
	k.Recover(recs)
	if k.Len() != 2 || k.cfg.Locks.HeldCount() != 1 || len(h.pending()) != 1 {
		t.Errorf("second recovery: %d contexts, %d locks, %d timers", k.Len(), k.cfg.Locks.HeldCount(), len(h.pending()))
	}
}

// TestRecoverAsksForTheOutcome pins the restart query: who a recovered
// transaction asks, what a peer answers, and that asking is not a campaign —
// an unanswered query changes nothing anywhere, and the restarted site's
// patience still starts its first termination round.
func TestRecoverAsksForTheOutcome(t *testing.T) {
	trio := []types.SiteID{1, 2, 4}
	voted := func(txn types.TxnID, coord types.SiteID, parts []types.SiteID) wal.Record {
		return wal.Record{Type: wal.RecVotedYes, Txn: txn, Coord: coord, Participants: parts, Writeset: wsX}
	}
	// asked lists, per transaction, the sites sent an OutcomeReq, failing
	// on any other frame.
	asked := func(t *testing.T, sent []msg.Envelope) map[types.TxnID][]types.SiteID {
		t.Helper()
		out := make(map[types.TxnID][]types.SiteID)
		for _, e := range sent {
			q, ok := e.Msg.(msg.OutcomeReq)
			if !ok {
				t.Errorf("recovery sent %v to site %d, want only OutcomeReq", e.Msg.Kind(), e.To)
				continue
			}
			out[q.Txn] = append(out[q.Txn], e.To)
		}
		return out
	}
	// relay delivers to's share of the queued sends of from.
	relay := func(from *fakeHost, to *Kernel[string]) {
		for _, e := range from.take() {
			if e.To == to.id {
				to.Handle(e)
			}
		}
	}

	t.Run("every unresolved transaction asks the others once", func(t *testing.T) {
		k, h := newKernel(1)
		k.Recover([]wal.Record{
			voted(80, 2, both),                             // W, coordinator a participant
			voted(81, 3, both), {Type: wal.RecPC, Txn: 81}, // PC, pure coordinator 3
			voted(82, 1, trio), {Type: wal.RecPA, Txn: 82}, // PA, coordinated here
			{Type: wal.RecBegin, Txn: 84, Coord: 1, Participants: []types.SiteID{2}, Writeset: wsX}, // pure coordinator here
			voted(85, 2, both), {Type: wal.RecCommit, Txn: 85},
		})
		got := asked(t, h.take())
		want := map[types.TxnID][]types.SiteID{80: {2}, 81: {2, 3}, 82: {2, 4}, 84: {2}}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("queries = %v, want %v", got, want)
		}
		if h.count(TermRound) != 0 {
			t.Error("asking consumed a termination round")
		}
		for _, txn := range []types.TxnID{80, 81, 82} {
			if c := k.Txn(txn); c == nil || c.rounds != 0 || c.coordSuspected || c.elect != nil {
				t.Errorf("%s after the query: %+v", txn, c)
			}
		}
	})

	t.Run("a peer with the outcome answers and the asker decides on it", func(t *testing.T) {
		for _, tc := range []struct {
			end  msg.Message
			want types.Outcome
		}{
			{msg.Commit{Txn: 86}, types.OutcomeCommitted},
			{msg.Abort{Txn: 86}, types.OutcomeAborted},
		} {
			peer, ph := newKernel(2)
			peer.Handle(msg.Envelope{From: 3, To: 2, Msg: msg.VoteReq{Txn: 86, Coord: 3, Participants: both, Writeset: wsX}})
			peer.Handle(msg.Envelope{From: 3, To: 2, Msg: tc.end})
			ph.take()
			k, h := newKernel(1)
			k.Recover([]wal.Record{voted(86, 3, both)})
			relay(h, peer)
			if sent := ph.sent; len(sent) != 1 || sent[0].To != 1 || sent[0].Msg != tc.end {
				t.Fatalf("%T: peer answered %+v, want %v to site 1", tc.end, sent, tc.end)
			}
			relay(ph, k)
			if o, _ := k.Outcome(86); o != tc.want || h.decided[86] != tc.want {
				t.Errorf("%T: restarted site reached %v, want %v", tc.end, o, tc.want)
			}
			if k.Len() != 0 || len(h.pending()) != 0 || k.cfg.Locks.HeldCount() != 0 || h.count(TermRound) != 0 {
				t.Errorf("%T: after the answer %d contexts, %d timers, %d locks, %d rounds",
					tc.end, k.Len(), len(h.pending()), k.cfg.Locks.HeldCount(), h.count(TermRound))
			}
			if v, _ := k.cfg.Store.Read("x"); (tc.want == types.OutcomeCommitted) != (v.Value == 7) {
				t.Errorf("%T: x = %d after %v", tc.end, v.Value, tc.want)
			}
			// The participant's DONE reaches a peer that has let go.
			relay(h, peer)
			if peer.Len() != 0 || len(ph.sent) != 0 {
				t.Errorf("%T: the DONE revived the peer's context", tc.end)
			}
		}
	})

	t.Run("a pure coordinator decides on the answer", func(t *testing.T) {
		peer, ph := newKernel(2)
		peer.Handle(msg.Envelope{From: 3, To: 2, Msg: msg.VoteReq{Txn: 87, Coord: 3, Participants: []types.SiteID{2}, Writeset: wsX}})
		peer.Handle(msg.Envelope{From: 3, To: 2, Msg: msg.Commit{Txn: 87}})
		ph.take()
		k, h := newKernel(3)
		k.Recover([]wal.Record{{Type: wal.RecBegin, Txn: 87, Coord: 3, Participants: []types.SiteID{2}, Writeset: wsX}})
		relay(h, peer)
		relay(ph, k)
		if o, _ := k.Outcome(87); o != types.OutcomeCommitted || k.Len() != 0 {
			t.Errorf("pure coordinator reached %v with %d contexts, want committed and none", o, k.Len())
		}
	})

	t.Run("a peer without the outcome stays silent and commits to nothing", func(t *testing.T) {
		peer, ph := newKernel(2)
		peer.Handle(msg.Envelope{From: 3, To: 2, Msg: msg.VoteReq{Txn: 88, Coord: 3, Participants: both, Writeset: wsX}})
		ph.take()
		c := peer.Txn(88)
		k, h := newKernel(1)
		k.Recover([]wal.Record{voted(88, 3, both), voted(89, 3, both)})
		relay(h, peer) // 88 in W here, 89 never heard of
		if len(ph.sent) != 0 {
			t.Fatalf("a peer without the outcome answered %+v", ph.sent)
		}
		if len(peer.promised) != 0 || c.coordSuspected || c.elect != nil || peer.Len() != 1 || ph.count(TermRound) != 0 {
			t.Errorf("the query left a mark: promised %v, suspected %v, election %v, %d contexts",
				peer.promised, c.coordSuspected, c.elect != nil, peer.Len())
		}
		peer.cfg.Locks.ReleaseAll(88) // x is free again: only a promise could stand in 89's way
		peer.Handle(msg.Envelope{From: 3, To: 2, Msg: msg.VoteReq{Txn: 89, Coord: 3, Participants: both, Writeset: wsX}})
		if v, ok := voteOf(ph.take(), 89); !ok || v != types.VoteYes {
			t.Errorf("VOTE-REQ after the query answered %v (sent=%v), want yes", v, ok)
		}
	})

	t.Run("an unanswered restart campaigns at 3 T with its full budget", func(t *testing.T) {
		k, h := newKernel(1)
		k.Recover([]wal.Record{voted(90, 2, both)})
		h.take()
		c := k.Txn(90)
		timers := h.pending()
		if len(timers) != 1 || timers[0].t.Role != protocol.RoleParticipant || timers[0].d != protocol.ParticipantPatience(k.env(c, protocol.RoleParticipant)) {
			t.Fatalf("pending after recovery: %+v, want the participant's 3 T patience", timers)
		}
		k.Fire(timers[0].t)
		if h.count(TermRound) != 1 || c.rounds != 1 || c.elect == nil {
			t.Fatalf("patience expiry: %d rounds, election %v", c.rounds, c.elect != nil)
		}
		env := k.env(c, protocol.RoleParticipant)
		for i := 0; i < 5; i++ {
			c.drop(protocol.RoleElection) // as if the round led nowhere
			env.RequestTermination(90)
		}
		if c.rounds != k.cfg.MaxTerminationRounds || h.count(TermRound) != k.cfg.MaxTerminationRounds {
			t.Errorf("%d rounds consumed, want the whole budget of %d", c.rounds, k.cfg.MaxTerminationRounds)
		}
	})
}

// TestRetire pins what the kernel keeps of a transaction that has terminated:
// the outcome, and nothing else — and when it lets go.
func TestRetire(t *testing.T) {
	t.Run("timers stopped", func(t *testing.T) {
		k, h := newKernel(1)
		k.Begin(1, wsX, both)
		h.pump(func(e msg.Envelope) bool {
			_, isCommit := e.Msg.(msg.Commit)
			return isCommit && e.To == 1
		})
		if k.Txn(1) == nil || len(h.sent) == 0 {
			t.Fatal("commit decision never reached the coordinator's own participant")
		}
		if len(h.timers) < 4 { // coordinator: votes, acks; participant: after the vote, after PC
			t.Fatalf("%d timers armed before the decision, want at least 4", len(h.timers))
		}
		h.pump(nil)
		if o, _ := k.Outcome(1); k.Len() != 0 || o != types.OutcomeCommitted {
			t.Fatalf("after the commit: %d contexts, outcome %v", k.Len(), o)
		}
		for i, tm := range h.timers {
			if !tm.stopped {
				t.Errorf("timer %d was still pending after the transaction was let go", i)
			}
		}
		if held := k.cfg.Locks.HeldCount(); held != 0 {
			t.Errorf("%d locks still held", held)
		}
	})

	t.Run("coordinator outlives its own no vote", func(t *testing.T) {
		k, h := newKernel(1)
		k.Begin(2, wsX, both)
		// The conflict arises after Begin, so the VOTE-REQ goes out.
		if err := k.cfg.Locks.TryAcquire(99, "x", lockmgr.Exclusive); err != nil {
			t.Fatal(err)
		}
		// Deliver the VOTE-REQ to the site's own participant, which must refuse.
		h.pump(func(e msg.Envelope) bool {
			_, isVote := e.Msg.(msg.VoteResp)
			return isVote && e.From == 1
		})
		if o, _ := k.Outcome(2); o != types.OutcomeAborted {
			t.Fatalf("own participant could not lock x, yet outcome = %v", o)
		}
		c := k.Txn(2)
		if c == nil || c.Automaton(protocol.RoleCoordinator) == nil {
			t.Fatal("coordinator was let go before it read its own participant's no vote")
		}
		if c.Automaton(protocol.RoleParticipant) != nil {
			t.Error("participant survived its own abort")
		}
		// The coordinator now reads the vote, decides and tells site 2.
		var toldPeer bool
		h.pump(func(e msg.Envelope) bool {
			if _, isAbort := e.Msg.(msg.Abort); isAbort && e.To == 2 {
				toldPeer = true
			}
			return false
		})
		if !toldPeer {
			t.Error("coordinator never sent ABORT to site 2")
		}
		if k.Len() != 0 {
			t.Errorf("%d contexts left after the coordinator finished", k.Len())
		}
	})
}

// TestBeginAbortsOnLockedLocalCopy pins the coordinator's abort before phase
// 1: a Begin whose own copy of a written item is locked by another
// transaction decides abort within the call, and nothing of the transaction
// leaves the site or outlives the call but its ABORT record and its outcome.
func TestBeginAbortsOnLockedLocalCopy(t *testing.T) {
	wsXY := types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}}
	t.Run("X", func(t *testing.T) {
		k, h := newKernel(1)
		locks := k.cfg.Locks
		if err := locks.TryAcquire(99, "y", lockmgr.Exclusive); err != nil {
			t.Fatal(err)
		}
		k.Begin(7, wsXY, both)
		if o, ok := k.Outcome(7); !ok || o != types.OutcomeAborted || h.decided[7] != types.OutcomeAborted {
			t.Fatalf("outcome after Begin = %v (known=%v), decided %v; want aborted", o, ok, h.decided[7])
		}
		if len(h.log) != 1 || h.log[0].Type != wal.RecAbort || h.log[0].Txn != 7 {
			t.Errorf("log = %v, want one ABORT and no BEGIN", h.log)
		}
		if len(h.sent) != 0 || len(h.timers) != 0 {
			t.Errorf("%d frames sent and %d timers armed, want none", len(h.sent), len(h.timers))
		}
		if k.Txn(7) != nil || k.Len() != 0 {
			t.Errorf("context kept (%d held): no coordinator should outlive the call", k.Len())
		}
		if locks.HeldCount() != 1 || !locks.LockedBy(99, "y") || locks.Locked("x") {
			t.Errorf("lock table moved: %d held, 99 holds y = %v, x locked = %v",
				locks.HeldCount(), locks.LockedBy(99, "y"), locks.Locked("x"))
		}
		if h.count(Begun) != 1 || h.count(AbortedAtBegin) != 1 || h.slotAt[7] != "begun here" {
			t.Errorf("events %v, slot %q: want Begun then AbortedAtBegin on the one context", h.events, h.slotAt[7])
		}
		if len(h.traces) != 1 || !strings.Contains(h.traces[0], "y") {
			t.Errorf("traces %q, want one naming the locked item y", h.traces)
		}
	})

	// goesAhead asserts txn was begun the ordinary way: a VOTE-REQ to every
	// participant and a coordinator installed, with BEGIN forced first only
	// at a pure coordinator (begin); a participating coordinator logs nothing.
	goesAhead := func(t *testing.T, k *Kernel[string], h *fakeHost, txn types.TxnID, begin bool) []msg.Envelope {
		t.Helper()
		sent := h.take()
		var reqs int
		for _, e := range sent {
			if _, ok := e.Msg.(msg.VoteReq); ok {
				reqs++
			}
		}
		logged := len(h.log) == 1 && h.log[0].Type == wal.RecBegin
		if logged != begin || (!begin && len(h.log) != 0) || reqs != len(both) {
			t.Errorf("log %v and %d VOTE-REQs, want BEGIN logged = %v and %d", h.log, reqs, begin, len(both))
		}
		if c := k.Txn(txn); c == nil || c.Automaton(protocol.RoleCoordinator) == nil || h.count(AbortedAtBegin) != 0 {
			t.Error("no coordinator installed")
		}
		return sent
	}

	t.Run("a lock held only at a remote site", func(t *testing.T) {
		k, h := newKernel(1)
		remote, rh := newKernel(2)
		if err := remote.cfg.Locks.TryAcquire(99, "x", lockmgr.Exclusive); err != nil {
			t.Fatal(err)
		}
		k.Begin(8, wsX, both)
		for _, e := range goesAhead(t, k, h, 8, false) {
			if e.To == 2 {
				remote.Handle(e)
			}
		}
		if v, ok := voteOf(rh.take(), 8); !ok || v != types.VoteNo {
			t.Errorf("remote site voted %v (sent=%v), want no: its own copy is locked", v, ok)
		}
	})

	t.Run("a coordinator holding no copy", func(t *testing.T) {
		k, h := newKernel(3)
		if err := k.cfg.Locks.TryAcquire(99, "x", lockmgr.Exclusive); err != nil {
			t.Fatal(err)
		}
		k.Begin(9, wsX, both)
		goesAhead(t, k, h, 9, true)
	})
	// A conflict that arises after Begin meets the participant's own no
	// vote: TestRetire/coordinator_outlives_its_own_no_vote.
}

// TestDurabilityTableMatchesForced: the package doc's durability table has
// one row per wal.RecType, and its forced column is what RecType.Forced
// says, so a new record type cannot go unclassified.
func TestDurabilityTableMatchesForced(t *testing.T) {
	src, err := os.ReadFile("site.go")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool) // record name -> forced column
	in := false
	for _, line := range strings.Split(string(src), "\n") {
		rest, isDoc := strings.CutPrefix(line, "//\t")
		switch {
		case strings.HasPrefix(rest, "record "):
			in = true
		case !in:
		case !isDoc:
			in = false
		case !strings.HasPrefix(rest, " "): // not a continuation line
			f := strings.Fields(rest)
			if len(f) < 2 || (f[1] != "yes" && f[1] != "no") {
				t.Fatalf("malformed durability row %q", rest)
			}
			rows[f[0]] = f[1] == "yes"
		}
	}
	seen := 0
	for typ := wal.RecInvalid + 1; !strings.HasPrefix(typ.String(), "RecType("); typ++ {
		forced, ok := rows[typ.String()]
		switch {
		case !ok:
			t.Errorf("%v has no row in the durability table", typ)
		case forced != typ.Forced():
			t.Errorf("the durability table says %v forced = %v, RecType.Forced says %v", typ, forced, typ.Forced())
		}
		seen++
	}
	if seen != len(rows) {
		t.Errorf("the durability table has %d rows for %d record types: %v", len(rows), seen, rows)
	}
}
