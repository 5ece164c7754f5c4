package threephase

import (
	"strings"
	"testing"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/protocoltest"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

func ex1() *voting.Assignment {
	return voting.MustAssignment(
		voting.Uniform("x", 2, 3, 1, 2, 3, 4),
		voting.Uniform("y", 2, 3, 5, 6, 7, 8),
	)
}

var (
	ws    = types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}}
	parts = []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
)

func voteReq(coord types.SiteID) msg.VoteReq {
	return msg.VoteReq{Txn: 1, Coord: coord, Participants: parts, Writeset: ws}
}

func TestParticipantVotesYes(t *testing.T) {
	env := protocoltest.New(2, ex1())
	p := NewParticipant(1, nil, false)
	p.Start(env)
	p.OnMessage(1, voteReq(1), env)

	if p.State() != types.StateWait {
		t.Errorf("state = %v, want W", p.State())
	}
	if len(env.Logs) != 1 || env.Logs[0].Type != wal.RecVotedYes {
		t.Errorf("logs = %v, want one VOTED-YES forced before the vote", env.Logs)
	}
	sent := env.SentTo(1)
	if len(sent) != 1 {
		t.Fatalf("sent %d messages to coordinator", len(sent))
	}
	if v, ok := sent[0].(msg.VoteResp); !ok || v.Vote != types.VoteYes {
		t.Errorf("vote = %#v", sent[0])
	}
	if len(env.Timers) == 0 {
		t.Error("no patience timer armed")
	}
}

func TestParticipantVotesNoOnLockFailure(t *testing.T) {
	env := protocoltest.New(2, ex1())
	env.LockOK = false
	p := NewParticipant(1, nil, false)
	p.Start(env)
	p.OnMessage(1, voteReq(1), env)

	if p.State() != types.StateAborted {
		t.Errorf("state = %v, want A (unilateral abort on no vote)", p.State())
	}
	sent := env.SentTo(1)
	if v, ok := sent[0].(msg.VoteResp); !ok || v.Vote != types.VoteNo {
		t.Errorf("vote = %#v", sent[0])
	}
	if len(env.Aborted) != 1 {
		t.Error("host abort not requested")
	}
}

func TestParticipantDuplicateVoteReqIdempotent(t *testing.T) {
	env := protocoltest.New(2, ex1())
	p := NewParticipant(1, nil, false)
	p.Start(env)
	p.OnMessage(1, voteReq(1), env)
	n := len(env.Logs)
	p.OnMessage(1, voteReq(1), env)
	if len(env.Logs) != n {
		t.Error("duplicate VOTE-REQ forced another log record")
	}
	if got := env.SentTo(1); len(got) != 2 {
		t.Errorf("expected re-sent yes vote, got %d messages", len(got))
	}
}

func TestParticipantPTCAndPTA(t *testing.T) {
	env := protocoltest.New(2, ex1())
	p := NewParticipant(1, nil, false)
	p.Start(env)
	p.OnMessage(1, voteReq(1), env)

	p.OnMessage(3, msg.PrepareToCommit{Txn: 1}, env)
	if p.State() != types.StatePC {
		t.Fatalf("state = %v, want PC", p.State())
	}
	if k := env.SentTo(3); len(k) != 1 || k[0].Kind() != msg.KindPCAck {
		t.Errorf("PC-ACK not sent: %v", k)
	}
	// The paper's rule: a participant in PC ignores PREPARE-TO-ABORT.
	p.OnMessage(4, msg.PrepareToAbort{Txn: 1}, env)
	if p.State() != types.StatePC {
		t.Errorf("PC site moved to %v on PREPARE-TO-ABORT", p.State())
	}
	if k := env.SentTo(4); len(k) != 0 {
		t.Errorf("PC site responded to PREPARE-TO-ABORT: %v", k)
	}
	// Re-delivered PTC re-acks without a new log record.
	n := len(env.Logs)
	p.OnMessage(3, msg.PrepareToCommit{Txn: 1}, env)
	if len(env.Logs) != n {
		t.Error("duplicate PTC logged again")
	}
}

func TestParticipantPAIgnoresPTC(t *testing.T) {
	env := protocoltest.New(2, ex1())
	p := NewParticipant(1, nil, false)
	p.Start(env)
	p.OnMessage(1, voteReq(1), env)
	p.OnMessage(3, msg.PrepareToAbort{Txn: 1}, env)
	if p.State() != types.StatePA {
		t.Fatalf("state = %v, want PA", p.State())
	}
	p.OnMessage(4, msg.PrepareToCommit{Txn: 1}, env)
	if p.State() != types.StatePA {
		t.Errorf("PA site moved to %v on PREPARE-TO-COMMIT", p.State())
	}
	if k := env.SentTo(4); len(k) != 0 {
		t.Errorf("PA site responded to PREPARE-TO-COMMIT: %v", k)
	}
}

func TestParticipantBuggyCrossings(t *testing.T) {
	env := protocoltest.New(2, ex1())
	p := NewParticipant(1, nil, true)
	p.Start(env)
	p.OnMessage(1, voteReq(1), env)
	p.OnMessage(3, msg.PrepareToAbort{Txn: 1}, env)
	p.OnMessage(4, msg.PrepareToCommit{Txn: 1}, env)
	if p.State() != types.StatePC {
		t.Errorf("buggy participant state = %v, want PC after crossing", p.State())
	}
	if k := env.SentTo(4); len(k) != 1 || k[0].Kind() != msg.KindPCAck {
		t.Errorf("buggy participant did not ack PTC from PA: %v", k)
	}
}

func TestParticipantCommitAndAbort(t *testing.T) {
	env := protocoltest.New(2, ex1())
	p := NewParticipant(1, nil, false)
	p.Start(env)
	p.OnMessage(1, voteReq(1), env)
	p.OnMessage(1, msg.Commit{Txn: 1}, env)
	if p.State() != types.StateCommitted || len(env.Committed) != 1 {
		t.Errorf("commit not applied: state=%v", p.State())
	}
	// Terminal is irrevocable: a late ABORT must be ignored.
	p.OnMessage(1, msg.Abort{Txn: 1}, env)
	if p.State() != types.StateCommitted || len(env.Aborted) != 0 {
		t.Error("terminal state not irrevocable")
	}
}

func TestParticipantCommitInInitialIgnored(t *testing.T) {
	env := protocoltest.New(2, ex1())
	p := NewParticipant(1, nil, false)
	p.Start(env)
	p.OnMessage(1, msg.Commit{Txn: 1}, env)
	if p.State() != types.StateInitial || len(env.Committed) != 0 {
		t.Error("COMMIT honored in q; a site that never voted cannot commit")
	}
}

func TestParticipantStateReqResponse(t *testing.T) {
	env := protocoltest.New(2, ex1())
	p := NewParticipant(1, nil, false)
	p.Start(env)
	p.OnMessage(1, voteReq(1), env)
	p.OnMessage(7, msg.StateReq{Txn: 1, Coord: 7, Epoch: 3}, env)
	sent := env.SentTo(7)
	if len(sent) != 1 {
		t.Fatalf("sent = %v", sent)
	}
	resp, ok := sent[0].(msg.StateResp)
	if !ok || resp.State != types.StateWait || resp.Epoch != 3 {
		t.Errorf("state resp = %#v", sent[0])
	}
}

func TestParticipantPatienceTriggersTermination(t *testing.T) {
	env := protocoltest.New(2, ex1())
	p := NewParticipant(1, nil, false)
	p.Start(env)
	p.OnMessage(1, voteReq(1), env)
	tm := env.LastTimer()
	p.OnTimer(tm.Token, env)
	if len(env.TermReqs) != 1 {
		t.Fatal("patience expiry did not request termination")
	}
	// Budget bounds the retries.
	for i := 0; i < 2*protocol.PatienceRounds; i++ {
		p.OnTimer(env.LastTimer().Token, env)
	}
	if len(env.TermReqs) != protocol.PatienceRounds {
		t.Errorf("termination requested %d times, want protocol.PatienceRounds = %d", len(env.TermReqs), protocol.PatienceRounds)
	}
}

func TestParticipantStaleTimerIgnored(t *testing.T) {
	env := protocoltest.New(2, ex1())
	p := NewParticipant(1, nil, false)
	p.Start(env)
	p.OnMessage(1, voteReq(1), env)
	stale := env.LastTimer().Token
	// Coordinator activity re-arms patience, superseding the old timer.
	p.OnMessage(7, msg.StateReq{Txn: 1, Coord: 7, Epoch: 1}, env)
	p.OnTimer(stale, env)
	if len(env.TermReqs) != 0 {
		t.Error("stale patience timer acted")
	}
}

func TestParticipantRecoveryImage(t *testing.T) {
	env := protocoltest.New(2, ex1())
	img := &wal.TxnImage{Txn: 1, State: types.StatePC, Coord: 1, Participants: parts, Writeset: ws}
	p := NewParticipant(1, img, false)
	p.Start(env)
	if p.State() != types.StatePC {
		t.Errorf("recovered state = %v", p.State())
	}
	if len(env.Timers) == 0 {
		t.Error("recovered mid-protocol participant must arm patience")
	}
}

// --- coordinator ---

func runVotes(c *Coordinator, env *protocoltest.Env, yes []types.SiteID) {
	for _, s := range yes {
		c.OnMessage(s, msg.VoteResp{Txn: 1, Vote: types.VoteYes}, env)
	}
}

// TestPureCoordinatorLogsBegin: a coordinator that holds no copy logs BEGIN
// (the record its restart reads to wait for the outcome) before any
// VOTE-REQ.
func TestPureCoordinatorLogsBegin(t *testing.T) {
	env := protocoltest.New(9, ex1())
	NewCoordinator(1, ws, parts, &quorumcalc.Quorums{Rule: quorumcalc.TP1Rule()}).Start(env)
	if len(env.Logs) != 1 || env.Logs[0].Type != wal.RecBegin || env.Logs[0].Coord != 9 || len(env.Logs[0].Participants) != len(parts) {
		t.Fatalf("logged %+v at start, want one BEGIN naming site9 and the participants", env.Logs)
	}
	if got := len(env.Sends); got != len(parts) {
		t.Fatalf("sent %d VOTE-REQs, want %d", got, len(parts))
	}
}

func TestCoordinatorHappyPathCP1(t *testing.T) {
	env := protocoltest.New(1, ex1())
	c := NewCoordinator(1, ws, parts, &quorumcalc.Quorums{Rule: quorumcalc.TP1Rule()})
	c.Start(env)

	// Phase 1: VOTE-REQ to every participant. Site 1 is a participant, so
	// it logs no BEGIN: its own VOTED-YES will carry the same fields.
	if len(env.Logs) != 0 {
		t.Errorf("logged %v at start, want nothing: a participant coordinator writes no BEGIN", env.Logs)
	}
	if got := len(env.Sends); got != len(parts) {
		t.Fatalf("sent %d VOTE-REQs, want %d", got, len(parts))
	}
	env.Reset()

	runVotes(c, env, parts)
	// Phase 2: PTC to every participant.
	ptc := 0
	for _, s := range env.Sends {
		if s.Msg.Kind() == msg.KindPrepareToCommit {
			ptc++
		}
	}
	if ptc != len(parts) {
		t.Fatalf("sent %d PTCs, want %d", ptc, len(parts))
	}
	env.Reset()

	// CP1 commits once PC-ACKs cover w(x) for every item: 3 x-sites + 3
	// y-sites. Two acks of each do not suffice.
	for _, s := range []types.SiteID{1, 2, 5, 6} {
		c.OnMessage(s, msg.PCAck{Txn: 1}, env)
	}
	if len(env.Sends) != 0 {
		t.Fatal("committed before the write quorum of acks")
	}
	c.OnMessage(3, msg.PCAck{Txn: 1}, env)
	if len(env.Sends) != 0 {
		t.Fatal("committed with w votes for x but not y")
	}
	c.OnMessage(7, msg.PCAck{Txn: 1}, env)
	commits := 0
	for _, s := range env.Sends {
		if s.Msg.Kind() == msg.KindCommit {
			commits++
		}
	}
	if commits != len(parts) {
		t.Errorf("sent %d COMMITs after quorum, want %d", commits, len(parts))
	}
	if c.DecidedAtAck != 6 {
		t.Errorf("DecidedAtAck = %d, want 6", c.DecidedAtAck)
	}
}

func TestCoordinatorCP2CommitsFaster(t *testing.T) {
	env := protocoltest.New(1, ex1())
	c := NewCoordinator(1, ws, parts, &quorumcalc.Quorums{Rule: quorumcalc.TP2Rule()})
	c.Start(env)
	runVotes(c, env, parts)
	env.Reset()

	// CP2 needs only r(x) = 2 votes of PC-ACKs for some item.
	c.OnMessage(1, msg.PCAck{Txn: 1}, env)
	if len(env.Sends) != 0 {
		t.Fatal("committed after one ack")
	}
	c.OnMessage(2, msg.PCAck{Txn: 1}, env)
	if len(env.Sends) == 0 {
		t.Fatal("CP2 should commit after two x acks")
	}
	if c.DecidedAtAck != 2 {
		t.Errorf("DecidedAtAck = %d, want 2", c.DecidedAtAck)
	}
}

func TestCoordinatorAbortsOnNoVote(t *testing.T) {
	env := protocoltest.New(1, ex1())
	c := NewCoordinator(1, ws, parts, &quorumcalc.Quorums{Rule: quorumcalc.ThreePCRule()})
	c.Start(env)
	env.Reset()
	c.OnMessage(2, msg.VoteResp{Txn: 1, Vote: types.VoteNo}, env)
	aborts := 0
	for _, s := range env.Sends {
		if s.Msg.Kind() == msg.KindAbort {
			aborts++
		}
	}
	if aborts != len(parts) {
		t.Errorf("sent %d ABORTs, want %d", aborts, len(parts))
	}
	// Late yes votes must not resurrect the transaction.
	env.Reset()
	runVotes(c, env, parts)
	if len(env.Sends) != 0 {
		t.Error("decided coordinator kept acting")
	}
}

func TestCoordinatorVoteTimeoutAborts(t *testing.T) {
	env := protocoltest.New(1, ex1())
	c := NewCoordinator(1, ws, parts, &quorumcalc.Quorums{Rule: quorumcalc.ThreePCRule()})
	c.Start(env)
	env.Reset()
	c.OnTimer(tokVotes, env)
	if len(env.Sends) == 0 || env.Sends[0].Msg.Kind() != msg.KindAbort {
		t.Error("vote timeout did not abort")
	}
}

func TestCoordinatorAckTimeoutPolicies(t *testing.T) {
	// 3PC: commit anyway.
	env := protocoltest.New(1, ex1())
	c := NewCoordinator(1, ws, parts, &quorumcalc.Quorums{Rule: quorumcalc.ThreePCRule()})
	c.Start(env)
	runVotes(c, env, parts)
	env.Reset()
	c.OnTimer(tokAcks, env)
	if len(env.Sends) == 0 || env.Sends[0].Msg.Kind() != msg.KindCommit {
		t.Error("3PC policy should commit on ack timeout")
	}

	// Quorum protocols: hand over to termination.
	env2 := protocoltest.New(1, ex1())
	c2 := NewCoordinator(1, ws, parts, &quorumcalc.Quorums{Rule: quorumcalc.TP1Rule()})
	c2.Start(env2)
	runVotes(c2, env2, parts)
	env2.Reset()
	c2.OnTimer(tokAcks, env2)
	if len(env2.TermReqs) != 1 {
		t.Error("terminate policy should request termination on ack timeout")
	}
}

// TestCoordinatorCountsEachParticipantAckOnce: a duplicated PC-ACK, or one
// from a site that is no participant, must not count toward the ack quorum.
func TestCoordinatorCountsEachParticipantAckOnce(t *testing.T) {
	env := protocoltest.New(1, ex1())
	c := NewCoordinator(1, ws, []types.SiteID{1, 2, 3}, &quorumcalc.Quorums{Rule: quorumcalc.SkeenRule(nil, 2, 2)})
	c.Start(env)
	runVotes(c, env, []types.SiteID{1, 2, 3})
	env.Reset()
	c.OnMessage(1, msg.PCAck{Txn: 1}, env)
	c.OnMessage(1, msg.PCAck{Txn: 1}, env)
	c.OnMessage(9, msg.PCAck{Txn: 1}, env)
	if len(env.Sends) != 0 {
		t.Fatal("one participant's ack reached a two-vote quorum")
	}
	c.OnMessage(2, msg.PCAck{Txn: 1}, env)
	if len(env.Sends) == 0 || c.DecidedAtAck != 2 {
		t.Errorf("second participant's ack should commit (DecidedAtAck = %d)", c.DecidedAtAck)
	}
}

// --- terminator ---

var tp1 = quorumcalc.TP1Rule()

func TestTerminatorPollsAndDistributes(t *testing.T) {
	env := protocoltest.New(2, ex1())
	term := NewTerminator(1, ws, parts, 5, &quorumcalc.Quorums{Rule: tp1})
	term.Start(env)
	reqs := 0
	for _, s := range env.Sends {
		if r, ok := s.Msg.(msg.StateReq); ok {
			reqs++
			if r.Epoch != 5 {
				t.Errorf("epoch = %d, want 5", r.Epoch)
			}
		}
	}
	if reqs != len(parts) {
		t.Fatalf("polled %d, want %d (including self)", reqs, len(parts))
	}
	env.Reset()
	term.OnMessage(2, msg.StateResp{Txn: 1, Epoch: 5, State: types.StateCommitted}, env)
	term.OnTimer(tokCollect, env)
	commits := 0
	for _, s := range env.Sends {
		if s.Msg.Kind() == msg.KindCommit {
			commits++
		}
	}
	if commits != len(parts) {
		t.Errorf("distributed %d COMMITs, want %d", commits, len(parts))
	}
	if len(env.TermDones) != 1 {
		t.Error("TerminatorDone not signalled")
	}
}

// TestTerminatorIgnoresUncountableResponses: a response from a stale epoch,
// with an undefined state, or from a site that is no participant must not
// enter the tally — here each of them claims a decisive state.
func TestTerminatorIgnoresUncountableResponses(t *testing.T) {
	env := protocoltest.New(2, ex1())
	term := NewTerminator(1, ws, []types.SiteID{2, 3}, 5, &quorumcalc.Quorums{Rule: tp1})
	term.Start(env)
	term.OnMessage(3, msg.StateResp{Txn: 1, Epoch: 4, State: types.StateCommitted}, env)
	term.OnMessage(3, msg.StateResp{Txn: 1, Epoch: 5, State: types.State(200)}, env)
	term.OnMessage(7, msg.StateResp{Txn: 1, Epoch: 5, State: types.StateCommitted}, env)
	env.Reset()
	term.OnTimer(tokCollect, env)
	if len(env.Blocked) != 1 {
		t.Errorf("uncountable responses were counted: sends %v", env.SentKinds())
	}
}

func TestTerminatorTryCommitConfirmFlow(t *testing.T) {
	env := protocoltest.New(2, ex1())
	term := NewTerminator(1, ws, parts, 1, &quorumcalc.Quorums{Rule: quorumcalc.ThreePCRule()})
	term.Start(env)
	term.OnMessage(5, msg.StateResp{Txn: 1, Epoch: 1, State: types.StatePC}, env)
	term.OnMessage(4, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateWait}, env)
	env.Reset()
	term.OnTimer(tokCollect, env)
	// PTC must go to the W reporter only.
	if got := env.SentTo(4); len(got) != 1 || got[0].Kind() != msg.KindPrepareToCommit {
		t.Errorf("PTC to site4 = %v", got)
	}
	if got := env.SentTo(5); len(got) != 0 {
		t.Errorf("PC reporter should not get PTC: %v", got)
	}
	// The one prepared site acks: every operational participant is in PC, so
	// COMMIT leaves on that ack and the window's expiry finds nothing to do.
	env.Reset()
	term.OnMessage(4, msg.PCAck{Txn: 1}, env)
	if len(env.Sends) == 0 || env.Sends[0].Msg.Kind() != msg.KindCommit {
		t.Error("confirmed try-commit should distribute COMMIT")
	}
	env.Reset()
	term.OnTimer(tokConfirm, env)
	if len(env.Sends) != 0 || len(env.TermReqs) != 0 || !term.Finished() {
		t.Errorf("expiry after the round closed did something: sends %v", env.SentKinds())
	}
}

// TestTerminatorReentersOnFailedConfirm: sites 2 and 3 in W hold r(x) votes,
// so TP1 attempts an abort quorum; one PA-ACK, even repeated, is one vote
// short of confirming it.
func TestTerminatorReentersOnFailedConfirm(t *testing.T) {
	env := protocoltest.New(2, ex1())
	term := NewTerminator(1, ws, parts, 1, &quorumcalc.Quorums{Rule: tp1})
	term.Start(env)
	term.OnMessage(2, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateWait}, env)
	term.OnMessage(3, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateWait}, env)
	term.OnTimer(tokCollect, env)
	if got := env.SentTo(3); len(got) != 2 || got[1].Kind() != msg.KindPrepareToAbort {
		t.Fatalf("PTA to site3 = %v", got)
	}
	term.OnMessage(2, msg.PAAck{Txn: 1}, env)
	term.OnMessage(2, msg.PAAck{Txn: 1}, env)
	env.Reset()
	term.OnTimer(tokConfirm, env)
	if len(env.TermReqs) != 1 {
		t.Error("failed confirmation should restart the election protocol")
	}
	if len(env.Sends) != 0 {
		t.Error("no decision should be distributed on failed confirmation")
	}
}

// TestTerminatorIgnoresNonParticipantAck: under a head-count quorum every
// acker weighs one vote, so a PA-ACK from a site that is no participant must
// not stand in for the participant that stayed silent.
func TestTerminatorIgnoresNonParticipantAck(t *testing.T) {
	env := protocoltest.New(2, ex1())
	term := NewTerminator(1, ws, []types.SiteID{2, 3, 4}, 1, &quorumcalc.Quorums{Rule: quorumcalc.SkeenRule(nil, 2, 2)})
	term.Start(env)
	term.OnMessage(2, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateWait}, env)
	term.OnMessage(3, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateWait}, env)
	term.OnTimer(tokCollect, env)
	term.OnMessage(2, msg.PAAck{Txn: 1}, env)
	term.OnMessage(9, msg.PAAck{Txn: 1}, env)
	env.Reset()
	term.OnTimer(tokConfirm, env)
	if len(env.TermReqs) != 1 || len(env.Sends) != 0 {
		t.Errorf("a non-participant's ack confirmed the abort quorum: sends %v", env.SentKinds())
	}
}

func TestTerminatorBlockVerdict(t *testing.T) {
	env := protocoltest.New(2, ex1())
	term := NewTerminator(1, ws, parts, 1, &quorumcalc.Quorums{Rule: tp1})
	term.Start(env)
	env.Reset()
	term.OnTimer(tokCollect, env)
	if len(env.Blocked) != 1 {
		t.Error("block verdict not reported")
	}
}

// TestTerminatorClosesWindowsOnReplies walks the two waits of a round under
// TP1 over Example 1's layout (x on sites 1–4, y on 5–8, r=2, w=3 each): each
// ends on the reply that settles it, and on nothing less.
func TestTerminatorClosesWindowsOnReplies(t *testing.T) {
	env := protocoltest.New(2, ex1())
	three := []types.SiteID{2, 3, 4}
	closed := func() string {
		for _, l := range env.TraceLines {
			if strings.Contains(l, " closed: ") {
				return l
			}
		}
		return ""
	}

	// An abort report does not close the poll while a participant is silent —
	// a C from that one would outrank it — but the last reply does.
	term := NewTerminator(1, ws, three, 1, &quorumcalc.Quorums{Rule: tp1})
	term.Start(env)
	env.Reset()
	term.OnMessage(2, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateAborted}, env)
	term.OnMessage(3, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateWait}, env)
	if term.Finished() || len(env.Sends) != 0 {
		t.Fatalf("poll closed on an abort report with site 4 silent: %v", env.SentKinds())
	}
	term.OnMessage(4, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateWait}, env)
	if !term.Finished() || len(env.Sends) != len(three) || env.Sends[0].Msg.Kind() != msg.KindAbort {
		t.Fatalf("the last reply did not close the poll with ABORT: %v", env.SentKinds())
	}
	if got := closed(); !strings.Contains(got, "collect closed: all answered at 3/3") {
		t.Errorf("trace = %q", got)
	}

	// A commit report closes it at once, whoever is still silent.
	env.Reset()
	term = NewTerminator(1, ws, three, 1, &quorumcalc.Quorums{Rule: tp1})
	term.Start(env)
	env.Reset()
	term.OnMessage(3, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateCommitted}, env)
	if !term.Finished() || len(env.Sends) != len(three) || env.Sends[0].Msg.Kind() != msg.KindCommit {
		t.Fatalf("a C report did not close the poll with COMMIT: %v", env.SentKinds())
	}
	if got := closed(); !strings.Contains(got, "collect closed: commit settled at 1/3") {
		t.Errorf("trace = %q", got)
	}

	// Three W sites hold r(x): try-abort. The abort quorum is two votes, so
	// the second PA-ACK closes the confirm window and the third is not
	// waited for; the window's expiry then finds the round over.
	env.Reset()
	term = NewTerminator(1, ws, three, 1, &quorumcalc.Quorums{Rule: tp1})
	term.Start(env)
	for _, s := range three {
		term.OnMessage(s, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateWait}, env)
	}
	if got := env.SentTo(4); len(got) != 2 || got[1].Kind() != msg.KindPrepareToAbort {
		t.Fatalf("PTA to site 4 = %v", got)
	}
	env.Reset()
	term.OnMessage(3, msg.PAAck{Txn: 1}, env)
	term.OnMessage(3, msg.PAAck{Txn: 1}, env) // a repeat is still one vote
	if term.Finished() || len(env.Sends) != 0 {
		t.Fatalf("one PA-ACK confirmed an abort quorum of two: %v", env.SentKinds())
	}
	term.OnMessage(2, msg.PAAck{Txn: 1}, env)
	if !term.Finished() || len(env.Sends) != len(three) || env.Sends[0].Msg.Kind() != msg.KindAbort {
		t.Fatalf("the confirming PA-ACK did not distribute ABORT: %v", env.SentKinds())
	}
	if got := closed(); !strings.Contains(got, "confirm closed: Qa confirmed by 2") {
		t.Errorf("trace = %q", got)
	}
	env.Reset()
	term.OnMessage(4, msg.PAAck{Txn: 1}, env)
	term.OnTimer(tokConfirm, env)
	if len(env.Sends) != 0 || len(env.TermReqs) != 0 {
		t.Errorf("a closed round reacted to a late ack or its expiry: %v", env.SentKinds())
	}
}

// TestTerminator3PCWaitsForEveryPreparedSite: 3PC's quorum demands nothing,
// so its confirm window closes only when every site that was sent
// PREPARE-TO-COMMIT has acknowledged it — or, for one that never does, when
// the window expires and the site is presumed failed.
func TestTerminator3PCWaitsForEveryPreparedSite(t *testing.T) {
	four := []types.SiteID{2, 3, 4, 5}
	poll := func() (*Terminator, *protocoltest.Env) {
		env := protocoltest.New(2, ex1())
		term := NewTerminator(1, ws, four, 1, &quorumcalc.Quorums{Rule: quorumcalc.ThreePCRule()})
		term.Start(env)
		term.OnMessage(5, msg.StateResp{Txn: 1, Epoch: 1, State: types.StatePC}, env)
		for _, s := range four[:3] {
			term.OnMessage(s, msg.StateResp{Txn: 1, Epoch: 1, State: types.StateWait}, env)
		}
		env.Reset()
		return term, env
	}

	term, env := poll()
	term.OnMessage(2, msg.PCAck{Txn: 1}, env)
	term.OnMessage(5, msg.PCAck{Txn: 1}, env) // the PC reporter was never asked
	term.OnMessage(4, msg.PCAck{Txn: 1}, env)
	if term.Finished() || len(env.Sends) != 0 {
		t.Fatalf("COMMIT left with site 3 still to acknowledge: %v", env.SentKinds())
	}
	term.OnMessage(3, msg.PCAck{Txn: 1}, env)
	if !term.Finished() || len(env.Sends) != len(four) || env.Sends[0].Msg.Kind() != msg.KindCommit {
		t.Fatalf("the last PC-ACK did not distribute COMMIT: %v", env.SentKinds())
	}

	term, env = poll()
	term.OnMessage(2, msg.PCAck{Txn: 1}, env)
	term.OnMessage(4, msg.PCAck{Txn: 1}, env)
	term.OnTimer(tokConfirm, env)
	if !term.Finished() || len(env.Sends) != len(four) || env.Sends[0].Msg.Kind() != msg.KindCommit {
		t.Fatalf("expiry with site 3 silent did not commit (site-failure assumption): %v", env.SentKinds())
	}

	// Everyone polled already in PC: nobody to prepare, nothing to wait for.
	env = protocoltest.New(2, ex1())
	term = NewTerminator(1, ws, four[:2], 1, &quorumcalc.Quorums{Rule: quorumcalc.ThreePCRule()})
	term.Start(env)
	env.Reset()
	term.OnMessage(2, msg.StateResp{Txn: 1, Epoch: 1, State: types.StatePC}, env)
	term.OnMessage(3, msg.StateResp{Txn: 1, Epoch: 1, State: types.StatePC}, env)
	if !term.Finished() || len(env.Timers) != 0 || len(env.Sends) != 2 || env.Sends[0].Msg.Kind() != msg.KindCommit {
		t.Fatalf("an all-PC poll did not commit at once: sends %v, timers %v", env.SentKinds(), env.Timers)
	}
}
