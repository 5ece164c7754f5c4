package twopc

import (
	"testing"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/protocoltest"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

func env() *protocoltest.Env {
	return protocoltest.New(1, voting.MustAssignment(
		voting.Uniform("x", 2, 3, 1, 2, 3, 4),
	))
}

var (
	ws    = types.Writeset{{Item: "x", Value: 1}}
	parts = []types.SiteID{1, 2, 3, 4}
)

func TestCoordinatorCommitsOnUnanimousYes(t *testing.T) {
	e := env()
	c := Spec{}.NewCoordinator(1, ws, parts)
	c.Start(e)
	if e.Logs[0].Type != wal.RecBegin {
		t.Error("BEGIN not logged first")
	}
	if len(e.Sends) != len(parts) {
		t.Fatalf("VOTE-REQs = %d", len(e.Sends))
	}
	e.Reset()
	for _, p := range parts[:3] {
		c.OnMessage(p, msg.VoteResp{Txn: 1, Vote: types.VoteYes}, e)
	}
	if len(e.Sends) != 0 {
		t.Fatal("committed before all votes")
	}
	c.OnMessage(parts[3], msg.VoteResp{Txn: 1, Vote: types.VoteYes}, e)
	commits := 0
	for _, s := range e.Sends {
		if s.Msg.Kind() == msg.KindCommit {
			commits++
		}
	}
	if commits != len(parts) {
		t.Errorf("COMMITs = %d, want %d", commits, len(parts))
	}
}

func TestCoordinatorAbortsOnNoOrTimeout(t *testing.T) {
	e := env()
	c := Spec{}.NewCoordinator(1, ws, parts)
	c.Start(e)
	e.Reset()
	c.OnMessage(2, msg.VoteResp{Txn: 1, Vote: types.VoteNo}, e)
	if len(e.Sends) == 0 || e.Sends[0].Msg.Kind() != msg.KindAbort {
		t.Error("no vote should abort")
	}

	e2 := env()
	c2 := Spec{}.NewCoordinator(1, ws, parts)
	c2.Start(e2)
	e2.Reset()
	c2.OnTimer(tokVotes, e2)
	if len(e2.Sends) == 0 || e2.Sends[0].Msg.Kind() != msg.KindAbort {
		t.Error("vote timeout should abort")
	}
}

func TestParticipantLifecycle(t *testing.T) {
	e := env()
	p := Spec{}.NewParticipant(1, nil).(*Participant)
	p.Start(e)
	p.OnMessage(1, msg.VoteReq{Txn: 1, Coord: 1, Participants: parts, Writeset: ws}, e)
	if p.State() != types.StateWait {
		t.Fatalf("state = %v", p.State())
	}
	p.OnMessage(1, msg.Commit{Txn: 1}, e)
	if p.State() != types.StateCommitted || len(e.Committed) != 1 {
		t.Error("commit not applied")
	}
}

func TestParticipantUncertaintyBlocksUnilateralAction(t *testing.T) {
	e := env()
	p := Spec{}.NewParticipant(1, nil).(*Participant)
	p.Start(e)
	p.OnMessage(1, msg.VoteReq{Txn: 1, Coord: 1, Participants: parts, Writeset: ws}, e)
	// In W, a DecisionReq yields "no decision" — not an abort.
	e.Reset()
	p.OnMessage(3, msg.DecisionReq{Txn: 1}, e)
	resp := e.SentTo(3)[0].(msg.DecisionResp)
	if resp.Decision != types.DecisionNone || resp.Uncommitted {
		t.Errorf("uncertain participant replied %+v", resp)
	}
	if p.State() != types.StateWait {
		t.Error("uncertain participant changed state")
	}
}

func TestParticipantInitialStateAbortsOnDecisionReq(t *testing.T) {
	e := env()
	p := Spec{}.NewParticipant(1, nil).(*Participant)
	p.Start(e)
	p.OnMessage(3, msg.DecisionReq{Txn: 1}, e)
	resp := e.SentTo(3)[0].(msg.DecisionResp)
	if !resp.Uncommitted {
		t.Errorf("unvoted participant replied %+v, want Uncommitted", resp)
	}
	if p.State() != types.StateAborted {
		t.Error("unvoted participant should abort unilaterally after promising abort")
	}
}

func TestTerminatorAdoptsKnownDecision(t *testing.T) {
	e := env()
	term := Spec{}.NewTerminator(1, ws, parts, 0).(*Terminator)
	term.Start(e)
	if len(e.Sends) != len(parts) {
		t.Fatalf("DecisionReqs = %d", len(e.Sends))
	}
	e.Reset()
	term.OnMessage(2, msg.DecisionResp{Txn: 1, Decision: types.DecisionCommit}, e)
	term.OnMessage(3, msg.DecisionResp{Txn: 1}, e)
	term.OnTimer(tokCollect, e)
	if len(e.Sends) == 0 || e.Sends[0].Msg.Kind() != msg.KindCommit {
		t.Error("known commit decision not adopted")
	}
}

func TestTerminatorAbortsWhenSomeoneUnvoted(t *testing.T) {
	e := env()
	term := Spec{}.NewTerminator(1, ws, parts, 0).(*Terminator)
	term.Start(e)
	e.Reset()
	term.OnMessage(2, msg.DecisionResp{Txn: 1, Uncommitted: true}, e)
	term.OnMessage(3, msg.DecisionResp{Txn: 1}, e)
	term.OnTimer(tokCollect, e)
	if len(e.Sends) == 0 || e.Sends[0].Msg.Kind() != msg.KindAbort {
		t.Error("uncommitted responder should allow a safe abort")
	}
}

func TestTerminatorBlocksWhenAllUncertain(t *testing.T) {
	e := env()
	term := Spec{}.NewTerminator(1, ws, parts, 0).(*Terminator)
	term.Start(e)
	e.Reset()
	term.OnMessage(2, msg.DecisionResp{Txn: 1}, e)
	term.OnMessage(3, msg.DecisionResp{Txn: 1}, e)
	term.OnTimer(tokCollect, e)
	if len(e.Blocked) != 1 {
		t.Error("all-uncertain poll must block — 2PC's fundamental weakness")
	}
	if len(e.Sends) != 0 {
		t.Error("blocked terminator must not distribute a decision")
	}
}

func TestTerminatorPrefersCommitOverAbortReports(t *testing.T) {
	// If one site reports commit (it saw the decision) the terminator must
	// distribute commit even if another reports abort — which cannot happen
	// in a correct run, but commit must win deterministically.
	e := env()
	term := Spec{}.NewTerminator(1, ws, parts, 0).(*Terminator)
	term.Start(e)
	e.Reset()
	term.OnMessage(2, msg.DecisionResp{Txn: 1, Decision: types.DecisionAbort}, e)
	term.OnMessage(3, msg.DecisionResp{Txn: 1, Decision: types.DecisionCommit}, e)
	term.OnTimer(tokCollect, e)
	if len(e.Sends) == 0 || e.Sends[0].Msg.Kind() != msg.KindCommit {
		t.Error("commit report should dominate")
	}
}

// TestTerminatorClosesPollOnSettlingReply: the cooperative poll ends on a
// COMMIT report or on the last participant's answer, and on nothing less — an
// abort or "uncommitted" report waits for the rest, since a COMMIT report
// from a site still silent would outrank it.
func TestTerminatorClosesPollOnSettlingReply(t *testing.T) {
	start := func() (*Terminator, *protocoltest.Env) {
		e := env()
		term := Spec{}.NewTerminator(1, ws, parts, 0).(*Terminator)
		term.Start(e)
		e.Reset()
		return term, e
	}

	term, e := start()
	term.OnMessage(parts[0], msg.DecisionResp{Txn: 1, Decision: types.DecisionCommit}, e)
	if !term.Finished() || len(e.Sends) != len(parts) || e.Sends[0].Msg.Kind() != msg.KindCommit {
		t.Fatalf("a COMMIT report did not close the poll: %v", e.SentKinds())
	}
	e.Reset()
	term.OnTimer(tokCollect, e)
	if len(e.Sends) != 0 || len(e.Blocked) != 0 {
		t.Errorf("the expiry of a closed poll did something: %v", e.SentKinds())
	}

	term, e = start()
	for i, p := range parts {
		if term.Finished() {
			t.Fatalf("poll closed with %d of %d answers, none of them COMMIT", i, len(parts))
		}
		resp := msg.DecisionResp{Txn: 1}
		switch i {
		case 0:
			resp.Decision = types.DecisionAbort
		case 1:
			resp.Uncommitted = true
		}
		term.OnMessage(p, resp, e)
	}
	if !term.Finished() || len(e.Sends) != len(parts) || e.Sends[0].Msg.Kind() != msg.KindAbort {
		t.Fatalf("the last answer did not close the poll with ABORT: %v", e.SentKinds())
	}
}

func TestParticipantRecoveryImage(t *testing.T) {
	e := env()
	img := &wal.TxnImage{Txn: 1, State: types.StateWait, Coord: 1, Participants: parts, Writeset: ws}
	p := Spec{}.NewParticipant(1, img).(*Participant)
	p.Start(e)
	if p.State() != types.StateWait {
		t.Errorf("recovered state = %v", p.State())
	}
	if len(e.Timers) == 0 {
		t.Error("recovered uncertain participant must arm patience")
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

func TestParticipantDuplicateVoteReq(t *testing.T) {
	e := env()
	p := Spec{}.NewParticipant(1, nil).(*Participant)
	p.Start(e)
	req := msg.VoteReq{Txn: 1, Coord: 1, Participants: parts, Writeset: ws}
	p.OnMessage(1, req, e)
	logs := len(e.Logs)
	p.OnMessage(1, req, e)
	if len(e.Logs) != logs {
		t.Error("duplicate VOTE-REQ logged twice")
	}
	if got := e.SentTo(1); len(got) != 2 {
		t.Errorf("expected re-sent vote, got %d messages", len(got))
	}
}

func TestParticipantVoteNoOnLockFailure(t *testing.T) {
	e := env()
	e.LockOK = false
	p := Spec{}.NewParticipant(1, nil).(*Participant)
	p.Start(e)
	p.OnMessage(1, msg.VoteReq{Txn: 1, Coord: 1, Participants: parts, Writeset: ws}, e)
	if p.State() != types.StateAborted || len(e.Aborted) != 1 {
		t.Errorf("state = %v; lock failure must vote no and abort", p.State())
	}
	resp := e.SentTo(1)[0].(msg.VoteResp)
	if resp.Vote != types.VoteNo {
		t.Errorf("vote = %v", resp.Vote)
	}
}

func TestParticipantStateReqInterop(t *testing.T) {
	e := env()
	p := Spec{}.NewParticipant(1, nil).(*Participant)
	p.Start(e)
	p.OnMessage(1, msg.VoteReq{Txn: 1, Coord: 1, Participants: parts, Writeset: ws}, e)
	p.OnMessage(3, msg.StateReq{Txn: 1, Coord: 3, Epoch: 2}, e)
	resp := e.SentTo(3)[0].(msg.StateResp)
	if resp.State != types.StateWait || resp.Epoch != 2 {
		t.Errorf("state resp = %+v", resp)
	}
}
