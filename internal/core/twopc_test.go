package core

import (
	"testing"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/protocoltest"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/threephase"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// Two-phase commit: the TwoPC variant, the three-phase automata without the
// PREPARE-TO-COMMIT round, terminated by the ladder with no quorum.

var (
	twoPC      = Spec{Variant: TwoPC}
	twoPCWS    = types.Writeset{{Item: "x", Value: 1}}
	twoPCParts = []types.SiteID{1, 2, 3, 4}
)

func twoPCEnv(self types.SiteID) *protocoltest.Env { return protocoltest.New(self, threePCAsgn()) }

func twoPCVoteReq() msg.VoteReq {
	return msg.VoteReq{Txn: 1, Coord: 1, Participants: twoPCParts, Writeset: twoPCWS}
}

func kindCount(e *protocoltest.Env, k msg.Kind) int {
	n := 0
	for _, s := range e.Sends {
		if s.Msg.Kind() == k {
			n++
		}
	}
	return n
}

// twoPCParticipant starts a fresh 2PC participant at site 2.
func twoPCParticipant(t *testing.T) (protocol.Automaton, *protocoltest.Env) {
	t.Helper()
	e := twoPCEnv(2)
	p := twoPC.NewParticipant(1, nil)
	p.Start(e)
	return p, e
}

func stateOf(p protocol.Automaton) types.State {
	return p.(interface{ State() types.State }).State()
}

func TestTwoPCCoordinatorCommitsOnUnanimousYes(t *testing.T) {
	e := twoPCEnv(1)
	c := twoPC.NewCoordinator(1, twoPCWS, twoPCParts)
	c.Start(e)
	if len(e.Logs) != 0 {
		t.Errorf("logged %v at start, want nothing: site1 is a participant and writes no BEGIN", e.Logs)
	}
	if n := kindCount(e, msg.KindVoteReq); n != len(twoPCParts) || len(e.Sends) != n {
		t.Fatalf("sends at start = %v, want %d VOTE-REQs", e.SentKinds(), len(twoPCParts))
	}
	e.Reset()
	for _, p := range twoPCParts[:3] {
		c.OnMessage(p, msg.VoteResp{Txn: 1, Vote: types.VoteYes}, e)
	}
	if len(e.Sends) != 0 {
		t.Fatalf("sent %v before the last vote", e.SentKinds())
	}
	c.OnMessage(twoPCParts[3], msg.VoteResp{Txn: 1, Vote: types.VoteYes}, e)
	if n := kindCount(e, msg.KindCommit); n != len(twoPCParts) || len(e.Sends) != n {
		t.Errorf("sends on the last yes = %v, want %d COMMITs and nothing else", e.SentKinds(), len(twoPCParts))
	}
	if kindCount(e, msg.KindPrepareToCommit) != 0 {
		t.Error("2PC's coordinator sent PREPARE-TO-COMMIT")
	}
	if len(e.Committed) != 0 {
		t.Error("a participant coordinator recorded its decision itself; its participant does")
	}
}

func TestTwoPCCoordinatorAbortsOnNoOrTimeout(t *testing.T) {
	e := twoPCEnv(1)
	c := twoPC.NewCoordinator(1, twoPCWS, twoPCParts)
	c.Start(e)
	e.Reset()
	c.OnMessage(2, msg.VoteResp{Txn: 1, Vote: types.VoteYes}, e)
	c.OnMessage(3, msg.VoteResp{Txn: 1, Vote: types.VoteNo}, e)
	if n := kindCount(e, msg.KindAbort); n != len(twoPCParts) || len(e.Sends) != n {
		t.Errorf("sends on a no vote = %v, want %d ABORTs", e.SentKinds(), len(twoPCParts))
	}

	e = twoPCEnv(1)
	c = twoPC.NewCoordinator(1, twoPCWS, twoPCParts)
	c.Start(e)
	votes := e.LastTimer()
	e.Reset()
	c.OnMessage(2, msg.VoteResp{Txn: 1, Vote: types.VoteYes}, e)
	c.OnTimer(votes.Token, e)
	if n := kindCount(e, msg.KindAbort); n != len(twoPCParts) || len(e.Sends) != n {
		t.Errorf("sends on the vote timeout = %v, want %d ABORTs", e.SentKinds(), len(twoPCParts))
	}
}

// TestTwoPCPureCoordinatorRecordsItsDecision: a coordinator holding no copy
// has no participant to apply the decision, so it records it itself.
func TestTwoPCPureCoordinatorRecordsItsDecision(t *testing.T) {
	e := twoPCEnv(5)
	c := twoPC.NewCoordinator(1, twoPCWS, twoPCParts)
	c.Start(e)
	for _, p := range twoPCParts {
		c.OnMessage(p, msg.VoteResp{Txn: 1, Vote: types.VoteYes}, e)
	}
	if len(e.Committed) != 1 || len(e.Aborted) != 0 {
		t.Errorf("pure coordinator committed %v, aborted %v; want the commit recorded", e.Committed, e.Aborted)
	}

	e = twoPCEnv(5)
	c = twoPC.NewCoordinator(1, twoPCWS, twoPCParts)
	c.Start(e)
	c.OnMessage(2, msg.VoteResp{Txn: 1, Vote: types.VoteNo}, e)
	if len(e.Aborted) != 1 || len(e.Committed) != 0 {
		t.Errorf("pure coordinator committed %v, aborted %v; want the abort recorded", e.Committed, e.Aborted)
	}
}

func TestTwoPCParticipantLifecycle(t *testing.T) {
	p, e := twoPCParticipant(t)
	p.OnMessage(1, twoPCVoteReq(), e)
	if stateOf(p) != types.StateWait {
		t.Fatalf("state after a yes vote = %v, want W", stateOf(p))
	}
	if v, ok := e.SentTo(1)[0].(msg.VoteResp); !ok || v.Vote != types.VoteYes {
		t.Fatalf("vote = %+v, want yes", e.SentTo(1)[0])
	}
	p.OnMessage(1, msg.Commit{Txn: 1}, e)
	if stateOf(p) != types.StateCommitted || len(e.Committed) != 1 {
		t.Error("COMMIT not applied")
	}
}

func TestTwoPCParticipantVoteNoOnLockFailure(t *testing.T) {
	p, e := twoPCParticipant(t)
	e.LockOK = false
	p.OnMessage(1, twoPCVoteReq(), e)
	if stateOf(p) != types.StateAborted || len(e.Aborted) != 1 {
		t.Errorf("state = %v; a lock failure must vote no and abort (q → A)", stateOf(p))
	}
	if v := e.SentTo(1)[0].(msg.VoteResp); v.Vote != types.VoteNo {
		t.Errorf("vote = %v, want no", v.Vote)
	}
}

func TestTwoPCParticipantDuplicateVoteReq(t *testing.T) {
	p, e := twoPCParticipant(t)
	p.OnMessage(1, twoPCVoteReq(), e)
	logs := len(e.Logs)
	p.OnMessage(1, twoPCVoteReq(), e)
	if len(e.Logs) != logs {
		t.Error("duplicate VOTE-REQ logged twice")
	}
	got := e.SentTo(1)
	if len(got) != 2 || got[1] != (msg.VoteResp{Txn: 1, Vote: types.VoteYes}) {
		t.Errorf("replies = %+v, want the yes vote re-sent", got)
	}
}

// TestTwoPCParticipantStateReqInterop: a participant in W answers a
// termination poll with W, echoing the poll's epoch.
func TestTwoPCParticipantStateReqInterop(t *testing.T) {
	p, e := twoPCParticipant(t)
	p.OnMessage(1, twoPCVoteReq(), e)
	e.Reset()
	p.OnMessage(3, msg.StateReq{Txn: 1, Coord: 3, Epoch: 2}, e)
	if got := e.SentTo(3); len(got) != 1 || got[0] != (msg.StateResp{Txn: 1, Epoch: 2, State: types.StateWait}) {
		t.Errorf("poll reply = %+v, want W at epoch 2", got)
	}
}

// TestTwoPCParticipantUncertaintyBlocksUnilateralAction: a participant in W
// stays there when polled — it cannot know what the coordinator decided.
func TestTwoPCParticipantUncertaintyBlocksUnilateralAction(t *testing.T) {
	p, e := twoPCParticipant(t)
	p.OnMessage(1, twoPCVoteReq(), e)
	e.Reset()
	p.OnMessage(3, msg.StateReq{Txn: 1, Coord: 3, Epoch: 2}, e)
	if stateOf(p) != types.StateWait || len(e.Committed)+len(e.Aborted) != 0 {
		t.Error("an uncertain participant terminated on a poll")
	}
}

// TestTwoPCParticipantInitialStateAbortsOnStateReq: a participant in q that
// answers a poll reports q and aborts unilaterally, since the terminator may
// abort on the strength of that reply.
func TestTwoPCParticipantInitialStateAbortsOnStateReq(t *testing.T) {
	p, e := twoPCParticipant(t)
	p.OnMessage(3, msg.StateReq{Txn: 1, Coord: 3, Epoch: 1}, e)
	if got := e.SentTo(3); len(got) != 1 || got[0] != (msg.StateResp{Txn: 1, Epoch: 1, State: types.StateInitial}) {
		t.Errorf("poll reply = %+v, want q", got)
	}
	if stateOf(p) != types.StateAborted || len(e.Aborted) != 1 {
		t.Errorf("state after reporting q = %v, want A", stateOf(p))
	}
}

// TestTwoPCParticipantPoisonsVoteAfterInitialReply: once a participant in q
// has answered a termination poll, it has promised not to vote — a VOTE-REQ
// arriving afterwards must not yield a yes vote.
func TestTwoPCParticipantPoisonsVoteAfterInitialReply(t *testing.T) {
	t.Run("state-req", func(t *testing.T) {
		p, e := twoPCParticipant(t)
		p.OnMessage(3, msg.StateReq{Txn: 1, Coord: 3, Epoch: 1}, e)
		if len(e.Aborted) != 1 {
			t.Fatalf("participant did not abort after initial-state reply (aborted %v)", e.Aborted)
		}
		e.Reset()
		p.OnMessage(1, twoPCVoteReq(), e)
		for _, s := range e.Sends {
			if v, ok := s.Msg.(msg.VoteResp); ok && v.Vote == types.VoteYes {
				t.Error("participant voted yes after promising q")
			}
		}
	})
}

func TestTwoPCParticipantRecoveryImage(t *testing.T) {
	e := twoPCEnv(2)
	img := &wal.TxnImage{Txn: 1, State: types.StateWait, Coord: 1, Participants: twoPCParts, Writeset: twoPCWS}
	p := twoPC.NewParticipant(1, img)
	p.Start(e)
	if stateOf(p) != types.StateWait {
		t.Errorf("recovered state = %v", stateOf(p))
	}
	if len(e.Timers) == 0 {
		t.Fatal("recovered uncertain participant must arm patience")
	}
	// Patience fires: request termination, bounded by the budget.
	p.OnTimer(e.LastTimer().Token, e)
	if len(e.TermReqs) != 1 {
		t.Error("patience did not request termination")
	}
	for i := 0; i < 2*protocol.PatienceRounds; i++ {
		p.OnTimer(e.LastTimer().Token, e)
	}
	if len(e.TermReqs) != protocol.PatienceRounds {
		t.Errorf("termination requested %d times, want protocol.PatienceRounds = %d", len(e.TermReqs), protocol.PatienceRounds)
	}
}

// twoPCTerminator starts a 2PC termination round at site 1, epoch 3.
func twoPCTerminator() (protocol.Automaton, *protocoltest.Env, int) {
	e := twoPCEnv(1)
	term := threephase.NewTerminator(1, twoPCWS, twoPCParts, 3, &quorumcalc.Quorums{Rule: twoPC.Rule(twoPCParts)})
	term.Start(e)
	window := e.LastTimer().Token
	e.Reset()
	return term, e, window
}

func report(term protocol.Automaton, e *protocoltest.Env, from types.SiteID, st types.State) {
	term.OnMessage(from, msg.StateResp{Txn: 1, Epoch: 3, State: st}, e)
}

func finished(a protocol.Automaton) bool { return a.(interface{ Finished() bool }).Finished() }

func TestTwoPCTerminatorAdoptsKnownDecision(t *testing.T) {
	term, e, _ := twoPCTerminator()
	report(term, e, 2, types.StateWait)
	if finished(term) {
		t.Fatal("poll closed on an uncertain reply with others silent")
	}
	report(term, e, 3, types.StateCommitted)
	if !finished(term) || kindCount(e, msg.KindCommit) != len(twoPCParts) {
		t.Errorf("a C reporter did not close the poll with COMMIT: %v", e.SentKinds())
	}
}

func TestTwoPCTerminatorAbortsWhenSomeoneUnvoted(t *testing.T) {
	for _, st := range []types.State{types.StateInitial, types.StateAborted} {
		term, e, window := twoPCTerminator()
		report(term, e, 2, types.StateWait)
		report(term, e, 3, st)
		if finished(term) {
			t.Fatalf("%v reporter closed the poll while a later C could outrank it", st)
		}
		term.OnTimer(window, e)
		if kindCount(e, msg.KindAbort) != len(twoPCParts) || len(e.Blocked) != 0 {
			t.Errorf("%v reporter: sends %v, blocked %v; want ABORT", st, e.SentKinds(), e.Blocked)
		}
	}
}

func TestTwoPCTerminatorBlocksWhenAllUncertain(t *testing.T) {
	term, e, _ := twoPCTerminator()
	for _, p := range twoPCParts {
		report(term, e, p, types.StateWait)
	}
	if len(e.Blocked) != 1 || len(e.TermDones) != 1 {
		t.Error("all-uncertain poll must block: 2PC's fundamental weakness")
	}
	if len(e.Sends) != 0 {
		t.Errorf("blocked terminator sent %v", e.SentKinds())
	}
}

// TestTwoPCTerminatorPrefersCommitOverAbortReports: a C and an A reporter
// cannot both occur in a correct run, but if they did commit must win
// deterministically — COMMIT is the verdict nothing outranks.
func TestTwoPCTerminatorPrefersCommitOverAbortReports(t *testing.T) {
	term, e, window := twoPCTerminator()
	report(term, e, 2, types.StateAborted)
	report(term, e, 3, types.StateCommitted)
	term.OnTimer(window, e)
	if kindCount(e, msg.KindCommit) != len(twoPCParts) || kindCount(e, msg.KindAbort) != 0 {
		t.Errorf("sends = %v, want COMMIT only", e.SentKinds())
	}
}

// TestTwoPCTerminatorClosesPollOnSettlingReply: the poll ends on a C report
// or on the last participant's answer, and on nothing less; the expiry of a
// closed poll does nothing.
func TestTwoPCTerminatorClosesPollOnSettlingReply(t *testing.T) {
	term, e, window := twoPCTerminator()
	report(term, e, twoPCParts[0], types.StateCommitted)
	if !finished(term) || kindCount(e, msg.KindCommit) != len(twoPCParts) {
		t.Fatalf("a C report did not close the poll: %v", e.SentKinds())
	}
	e.Reset()
	term.OnTimer(window, e)
	if len(e.Sends) != 0 || len(e.Blocked) != 0 {
		t.Errorf("the expiry of a closed poll did something: %v", e.SentKinds())
	}

	term, e, _ = twoPCTerminator()
	for i, st := range []types.State{types.StateAborted, types.StateInitial, types.StateWait, types.StateWait} {
		if finished(term) {
			t.Fatalf("poll closed with %d of %d answers, none of them C", i, len(twoPCParts))
		}
		report(term, e, twoPCParts[i], st)
	}
	if !finished(term) || kindCount(e, msg.KindAbort) != len(twoPCParts) {
		t.Fatalf("the last answer did not close the poll with ABORT: %v", e.SentKinds())
	}
}
