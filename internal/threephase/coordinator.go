package threephase

import (
	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

type coordPhase uint8

const (
	cpVoting coordPhase = iota
	cpPreparing
	cpDone
)

// Timer tokens.
const (
	tokVotes = iota + 1
	tokAcks
)

// Coordinator drives the commit protocol for one transaction. It follows the
// three-phase skeleton of Figs. 2 and 9: distribute VOTE-REQ, collect votes,
// distribute PREPARE-TO-COMMIT on unanimous yes, collect PC-ACKs until the
// rule's ack quorum is reached, then distribute COMMIT. Any no vote or vote
// timeout aborts. The ack quorum is what distinguishes plain 3PC (every
// participant) from Skeen's quorum commit protocol and the paper's commit
// protocols 1 and 2 (the commit quorum Qc of their termination rule). 2PC's
// rule skips the PREPARE-TO-COMMIT round (Rule.Prepares): COMMIT goes out on
// the last yes vote (Fig. 1).
type Coordinator struct {
	txn          types.TxnID
	ws           types.Writeset
	participants []types.SiteID
	q            *quorumcalc.Quorums

	phase coordPhase
	// yes and acked are the participants whose yes vote and PC-ACK arrived.
	yes, acked quorumcalc.Set
	// DecidedAtAck is set when the commit decision was reached (for latency
	// measurements): number of PC-ACKs received at decision time.
	DecidedAtAck int
}

// AcksAtDecision returns how many PC-ACKs the coordinator had received when
// it decided to commit (0 if it has not committed, or if its rule does not
// prepare). The engine exposes this for the claim-C2 benchmarks.
func (c *Coordinator) AcksAtDecision() int { return c.DecidedAtAck }

// NewCoordinator builds a coordinator for txn under the rule q, which Start
// compiles unless another automaton of the transaction already has.
func NewCoordinator(txn types.TxnID, ws types.Writeset, participants []types.SiteID, q *quorumcalc.Quorums) *Coordinator {
	return &Coordinator{txn: txn, ws: ws, participants: participants, q: q}
}

// Start implements protocol.Automaton: phase 1, distribute the update values
// and request votes. Only a pure coordinator logs BEGIN: it is the record a
// restart reads to learn that the site must wait for the outcome. A
// coordinator that is a participant writes none: its own VOTED-YES carries
// the same fields and gates every PREPARE-TO-COMMIT or COMMIT it could send,
// and a restart that finds nothing leaves the site in q, which aborts.
func (c *Coordinator) Start(env protocol.Env) {
	c.q.Compile(env.Assignment(), c.ws, c.participants)
	c.q.Frame().Size(&c.yes, &c.acked)
	if c.q.Index(env.Self()) < 0 {
		env.Append(wal.Record{
			Type:         wal.RecBegin,
			Txn:          c.txn,
			Coord:        env.Self(),
			Participants: c.participants,
			Writeset:     c.ws,
		})
	}
	env.Tracef("%s: coordinator %s starts commit (%s rule)", c.txn, env.Self(), c.q.AckName())
	var req msg.Message = msg.VoteReq{Txn: c.txn, Coord: env.Self(), Participants: c.participants, Writeset: c.ws} // boxed once for all
	for _, p := range c.participants {
		env.Send(p, req)
	}
	env.SetTimer(protocol.AckWindow(env), tokVotes)
}

// OnMessage implements protocol.Automaton.
func (c *Coordinator) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	switch v := m.(type) {
	case msg.VoteResp:
		if c.phase != cpVoting {
			return
		}
		if v.Vote == types.VoteNo {
			c.decideAbort(env, "participant voted no")
			return
		}
		if i := c.q.Index(from); i >= 0 {
			c.yes.Add(i)
		}
		if c.yes.Len() < len(c.participants) {
			return
		}
		if c.q.Prepares() {
			c.beginPrepare(env)
		} else {
			c.decideCommit(env)
		}
	case msg.PCAck:
		i := c.q.Index(from)
		if c.phase != cpPreparing || i < 0 || c.acked.Has(i) {
			return
		}
		c.acked.Add(i)
		if c.q.Ack(c.acked) {
			c.DecidedAtAck = c.acked.Len()
			c.decideCommit(env)
		}
	}
}

// Finished reports that the coordinator has decided or handed the transaction
// to the termination protocol; it ignores everything from then on.
func (c *Coordinator) Finished() bool { return c.phase == cpDone }

// OnTimer implements protocol.Automaton.
func (c *Coordinator) OnTimer(token int, env protocol.Env) {
	switch token {
	case tokVotes:
		if c.phase == cpVoting {
			c.decideAbort(env, "vote timeout")
		}
	case tokAcks:
		if c.phase != cpPreparing {
			return
		}
		switch {
		case c.q.Ack(c.acked):
			c.decideCommit(env)
		case c.q.CommitsOnAckTimeout():
			env.Tracef("%s: ack window closed, committing anyway (3PC site-failure assumption)", c.txn)
			c.decideCommit(env)
		default:
			env.Tracef("%s: ack window closed without a quorum, invoking termination", c.txn)
			c.phase = cpDone
			env.RequestTermination(c.txn)
		}
	}
}

func (c *Coordinator) beginPrepare(env protocol.Env) {
	c.phase = cpPreparing
	env.Tracef("%s: all votes yes, distributing PREPARE-TO-COMMIT", c.txn)
	for _, p := range c.participants {
		env.Send(p, msg.PrepareToCommit{Txn: c.txn})
	}
	env.SetTimer(protocol.AckWindow(env), tokAcks)
}

func (c *Coordinator) decideCommit(env protocol.Env) {
	if c.phase == cpDone {
		return
	}
	c.phase = cpDone
	env.Tracef("%s: coordinator decides COMMIT after %d PC-ACKs", c.txn, c.acked.Len())
	for _, p := range c.participants {
		env.Send(p, msg.Commit{Txn: c.txn})
	}
	if c.q.Index(env.Self()) < 0 {
		// Pure coordinator (holds no copies): record its own decision.
		env.Commit(c.txn)
	}
}

func (c *Coordinator) decideAbort(env protocol.Env, why string) {
	if c.phase == cpDone {
		return
	}
	c.phase = cpDone
	env.Tracef("%s: coordinator decides ABORT (%s)", c.txn, why)
	for _, p := range c.participants {
		env.Send(p, msg.Abort{Txn: c.txn})
	}
	if c.q.Index(env.Self()) < 0 {
		env.Abort(c.txn)
	}
}
