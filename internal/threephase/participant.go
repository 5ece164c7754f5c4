// Package threephase provides the automata shared by every protocol in the
// repository: the participant with the q/W/PC/PA/C/A state machine (Fig. 6
// of the paper), the commit coordinator (Figs. 1, 2 and 9) and the
// termination coordinator (Figs. 5 and 8). The coordinator and the
// terminator are parameterized by one quorumcalc.Rule — Skeen's site-vote
// quorums, the paper's TP1/TP2 replica-vote quorums, 3PC's site-failure
// rule, or 2PC's rule, whose coordinator skips the PREPARE-TO-COMMIT round
// and whose quorums never hold — which they consult and never restate. They
// compile it at Start into the transaction's quorumcalc.Quorums, which the
// site kernel shares among all of the transaction's coordinators and
// terminators, and count votes, acks and replies as participant sets.
// core.Spec picks the rule from its Variant.
//
// Every wait in these automata is closed by the reply it waits for, and its
// timer is only the bound for sites that stay silent: the coordinator sends
// COMMIT on the PC-ACK that completes Quorums.Ack (the paper's early
// commit), the terminator ends its poll on the reply after which no other
// could change the verdict (Quorums.Settled) and its confirm round on the ack
// that confirms the attempted quorum (Quorums.Confirmed). What is decided is always
// what the timer's expiry would have decided; only the time differs.
//
// The poll also stops waiting for the sites its host suspects of having
// failed (protocol.Env.Suspected): a site's coordinator becomes a suspect
// when the site's 3T patience with it runs out, or another site's does, and
// stops being one on its next frame about the transaction.
// With the coordinator dead, a transaction is therefore in doubt for 3T of
// participant patience and a handful of message hops — the poll closes on
// the last survivor's reply instead of spending 2T on a site that will never
// answer, and the election does not wait for that site to claim the role
// (engine.TestTerminationStageBudget prints the budget per protocol). 2PC's
// poll reads suspicion too: with every survivor in W it blocks on the last
// survivor's reply instead of at the end of the 2T window.
//
// Suspicion is safe because it can be wrong only about time. Every poll it
// closes early is the poll the 2T timer closes in a legal run of the same
// protocol in which the suspects' replies arrive after the window: the same
// tally, so the same verdict. The paper's quorum rules and the PC/PA buffer
// rule already guard those runs — partitions, concurrent terminators and a
// coordinator that resurfaces included. A live site wrongly suspected can
// cost a round, or turn a commit into a quorum-confirmed abort; it can never
// split the outcome.
//
// A participant that rejoins from its log after a crash is resumed in its
// logged state with its patience armed afresh, and its site asks the other
// sites for the outcome at once (site.Kernel.Recover). That query is not a
// move of these automata: a site answers it only with a COMMIT or ABORT that
// already stands there, which the participant applies as it would its
// coordinator's, and an unanswered one leaves the 3T patience to start the
// termination protocol as before.
package threephase

import (
	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// Participant is the per-site automaton of all three-phase-style protocols.
// State transitions follow Fig. 6: q→W on a yes vote, q→A on a no vote,
// W→PC on PREPARE-TO-COMMIT, W→PA on PREPARE-TO-ABORT, PC/W/PA→C on COMMIT,
// PC/W/PA→A on ABORT. There is no transition between PC and PA: a
// participant in PC ignores PREPARE-TO-ABORT and one in PA ignores
// PREPARE-TO-COMMIT (unless buggyBufferCrossing reproduces Example 3).
type Participant struct {
	txn   types.TxnID
	state types.State
	coord types.SiteID
	// buggyBufferCrossing answers PREPARE-TO-ABORT in PC and
	// PREPARE-TO-COMMIT in PA: Example 3's rule violation, kept so its
	// counterexample (two coordinators terminating inconsistently) runs.
	buggyBufferCrossing bool

	patienceLeft int
	timerSeq     int
}

// NewParticipant creates a participant. init is non-nil when rejoining after
// a crash (or when a paper scenario is constructed mid-protocol).
// buggyBufferCrossing is only for the Example 3 counterexample.
func NewParticipant(txn types.TxnID, init *wal.TxnImage, buggyBufferCrossing bool) *Participant {
	p := &Participant{txn: txn, state: types.StateInitial, buggyBufferCrossing: buggyBufferCrossing,
		patienceLeft: protocol.PatienceRounds}
	if init != nil {
		p.state = init.State
		p.coord = init.Coord
	}
	return p
}

// State returns the participant's local state.
func (p *Participant) State() types.State { return p.state }

// Start implements protocol.Automaton.
func (p *Participant) Start(env protocol.Env) {
	if p.state == types.StateWait || p.state == types.StatePC || p.state == types.StatePA {
		// Mid-protocol (recovery or scripted scenario): watch for silence.
		p.armPatience(env)
	}
}

func (p *Participant) armPatience(env protocol.Env) {
	p.timerSeq++
	env.SetTimer(protocol.ParticipantPatience(env), p.timerSeq)
}

// OnTimer implements protocol.Automaton: patience expiry starts the election
// protocol, as in the paper ("occurs when the participant does not receive a
// response from the coordinator within 3T").
func (p *Participant) OnTimer(token int, env protocol.Env) {
	if token != p.timerSeq {
		return // superseded by later coordinator activity
	}
	if p.state.Terminal() || p.state == types.StateInitial {
		return
	}
	if p.patienceLeft <= 0 {
		return
	}
	p.patienceLeft--
	env.Tracef("%s: %s silent too long in %s, invoking termination", p.txn, env.Self(), p.state)
	env.RequestTermination(p.txn)
	p.armPatience(env)
}

// OnMessage implements protocol.Automaton.
func (p *Participant) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	switch v := m.(type) {
	case msg.VoteReq:
		p.onVoteReq(from, v, env)
	case msg.PrepareToCommit:
		p.onPTC(from, env)
	case msg.PrepareToAbort:
		p.onPTA(from, env)
	case msg.Commit:
		if !p.state.Terminal() && p.state != types.StateInitial {
			p.state = types.StateCommitted
			env.Commit(p.txn)
		}
	case msg.Abort:
		if !p.state.Terminal() {
			p.state = types.StateAborted
			env.Abort(p.txn)
		}
	case msg.StateReq:
		env.Send(from, msg.StateResp{Txn: p.txn, Epoch: v.Epoch, State: p.state})
		// Reporting q is a promise not to vote yes afterwards — the
		// termination protocol may abort on the strength of this reply.
		if p.state == types.StateInitial {
			p.state = types.StateAborted
			env.Abort(p.txn)
			return
		}
		if !p.state.Terminal() {
			p.armPatience(env) // a termination coordinator is active
		}
	}
}

func (p *Participant) onVoteReq(from types.SiteID, v msg.VoteReq, env protocol.Env) {
	switch p.state {
	case types.StateInitial:
		p.coord = v.Coord
		if env.AcquireLocks(p.txn) {
			env.Append(wal.Record{
				Type:         wal.RecVotedYes,
				Txn:          p.txn,
				Coord:        v.Coord,
				Participants: v.Participants,
				Writeset:     v.Writeset,
			})
			p.state = types.StateWait
			env.Send(from, msg.VoteResp{Txn: p.txn, Vote: types.VoteYes})
			p.armPatience(env)
		} else {
			// Cannot implement the update (e.g. I/O subsystem failure or a
			// lock conflict): vote no and abort unilaterally.
			env.Append(wal.Record{Type: wal.RecVotedNo, Txn: p.txn})
			env.Send(from, msg.VoteResp{Txn: p.txn, Vote: types.VoteNo})
			p.state = types.StateAborted
			env.Abort(p.txn)
		}
	case types.StateWait:
		// Duplicate VOTE-REQ: re-send the yes vote.
		env.Send(from, msg.VoteResp{Txn: p.txn, Vote: types.VoteYes})
	}
}

func (p *Participant) onPTC(from types.SiteID, env protocol.Env) {
	switch p.state {
	case types.StateWait:
		env.Append(wal.Record{Type: wal.RecPC, Txn: p.txn})
		p.state = types.StatePC
		env.Tracef("%s: %s enters PC", p.txn, env.Self())
		env.Send(from, msg.PCAck{Txn: p.txn})
		p.armPatience(env)
	case types.StatePC:
		env.Send(from, msg.PCAck{Txn: p.txn}) // idempotent re-ack
		p.armPatience(env)
	case types.StatePA:
		if p.buggyBufferCrossing {
			// Example 3's forbidden behaviour: responding to
			// PREPARE-TO-COMMIT while in PA lets two concurrent termination
			// coordinators form both quorums.
			env.Append(wal.Record{Type: wal.RecPC, Txn: p.txn})
			p.state = types.StatePC
			env.Tracef("%s: %s BUGGY PA→PC crossing", p.txn, env.Self())
			env.Send(from, msg.PCAck{Txn: p.txn})
			p.armPatience(env)
			return
		}
		// Correct rule: a participant in PA ignores PREPARE-TO-COMMIT.
		env.Tracef("%s: %s in PA ignores PREPARE-TO-COMMIT", p.txn, env.Self())
	}
}

func (p *Participant) onPTA(from types.SiteID, env protocol.Env) {
	switch p.state {
	case types.StateWait:
		env.Append(wal.Record{Type: wal.RecPA, Txn: p.txn})
		p.state = types.StatePA
		env.Tracef("%s: %s enters PA", p.txn, env.Self())
		env.Send(from, msg.PAAck{Txn: p.txn})
		p.armPatience(env)
	case types.StatePA:
		env.Send(from, msg.PAAck{Txn: p.txn}) // idempotent re-ack
		p.armPatience(env)
	case types.StatePC:
		if p.buggyBufferCrossing {
			env.Append(wal.Record{Type: wal.RecPA, Txn: p.txn})
			p.state = types.StatePA
			env.Tracef("%s: %s BUGGY PC→PA crossing", p.txn, env.Self())
			env.Send(from, msg.PAAck{Txn: p.txn})
			p.armPatience(env)
			return
		}
		// Correct rule: a participant in PC ignores PREPARE-TO-ABORT.
		env.Tracef("%s: %s in PC ignores PREPARE-TO-ABORT", p.txn, env.Self())
	}
}
