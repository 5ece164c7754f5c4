// Package twopc implements the two-phase commit protocol (Fig. 1 of the
// paper) with the classic cooperative termination protocol.
//
// 2PC is the simplest atomic commitment protocol and the baseline every
// other protocol here is measured against: in the absence of failures it
// works well, but once a participant has voted yes it cannot terminate the
// transaction until it learns the coordinator's decision. If the coordinator
// crashes or the network partitions, participants block, holding locks on
// every data item the transaction touched.
package twopc

import (
	"sort"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// Spec is the 2PC protocol family.
type Spec struct{}

var _ protocol.Spec = Spec{}

// Name implements protocol.Spec.
func (Spec) Name() string { return "2PC" }

// NewCoordinator implements protocol.Spec.
func (s Spec) NewCoordinator(txn types.TxnID, ws types.Writeset, participants []types.SiteID) protocol.Automaton {
	return &Coordinator{txn: txn, ws: ws, participants: participants, votes: make(map[types.SiteID]types.Vote)}
}

// NewParticipant implements protocol.Spec.
func (s Spec) NewParticipant(txn types.TxnID, init *wal.TxnImage) protocol.Automaton {
	p := &Participant{txn: txn, state: types.StateInitial, patienceLeft: protocol.PatienceRounds}
	if init != nil {
		p.state = init.State
		p.coord = init.Coord
	}
	return p
}

// NewTerminator implements protocol.Spec: cooperative termination by
// decision polling.
func (s Spec) NewTerminator(txn types.TxnID, ws types.Writeset, participants []types.SiteID, epoch uint32) protocol.Automaton {
	return &Terminator{txn: txn, participants: participants, epoch: epoch}
}

// --- coordinator ---

// Timer tokens.
const (
	tokVotes = iota + 1
	tokCollect
)

// Coordinator runs 2PC's two phases: distribute VOTE-REQ, collect votes,
// distribute COMMIT on unanimous yes or ABORT otherwise.
type Coordinator struct {
	txn          types.TxnID
	ws           types.Writeset
	participants []types.SiteID
	votes        map[types.SiteID]types.Vote
	done         bool
}

// Start implements protocol.Automaton.
func (c *Coordinator) Start(env protocol.Env) {
	env.Append(wal.Record{
		Type:         wal.RecBegin,
		Txn:          c.txn,
		Coord:        env.Self(),
		Participants: c.participants,
		Writeset:     c.ws,
	})
	env.Tracef("%s: 2PC coordinator %s starts", c.txn, env.Self())
	req := msg.VoteReq{Txn: c.txn, Coord: env.Self(), Participants: c.participants, Writeset: c.ws}
	for _, p := range c.participants {
		env.Send(p, req)
	}
	env.SetTimer(protocol.AckWindow(env), tokVotes)
}

// OnMessage implements protocol.Automaton.
func (c *Coordinator) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	v, ok := m.(msg.VoteResp)
	if !ok || c.done {
		return
	}
	c.votes[from] = v.Vote
	if v.Vote == types.VoteNo {
		c.decide(env, types.DecisionAbort, "participant voted no")
		return
	}
	for _, p := range c.participants {
		vote, got := c.votes[p]
		if !got || vote != types.VoteYes {
			return
		}
	}
	c.decide(env, types.DecisionCommit, "unanimous yes")
}

// Finished reports that the coordinator has decided; it ignores everything
// from then on.
func (c *Coordinator) Finished() bool { return c.done }

// OnTimer implements protocol.Automaton.
func (c *Coordinator) OnTimer(token int, env protocol.Env) {
	if token == tokVotes && !c.done {
		c.decide(env, types.DecisionAbort, "vote timeout")
	}
}

func (c *Coordinator) decide(env protocol.Env, d types.Decision, why string) {
	c.done = true
	env.Tracef("%s: 2PC coordinator decides %s (%s)", c.txn, d, why)
	for _, p := range c.participants {
		if d == types.DecisionCommit {
			env.Send(p, msg.Commit{Txn: c.txn})
		} else {
			env.Send(p, msg.Abort{Txn: c.txn})
		}
	}
	self := env.Self()
	isParticipant := false
	for _, p := range c.participants {
		if p == self {
			isParticipant = true
			break
		}
	}
	if !isParticipant {
		if d == types.DecisionCommit {
			env.Commit(c.txn)
		} else {
			env.Abort(c.txn)
		}
	}
}

// --- participant ---

// Participant is 2PC's per-site automaton: q → W on a yes vote, then wait
// for the decision. Once in W it is *uncertain* and may not terminate
// unilaterally — the source of 2PC's blocking.
type Participant struct {
	txn          types.TxnID
	state        types.State
	coord        types.SiteID
	patienceLeft int
	timerSeq     int
}

// State returns the participant's local state.
func (p *Participant) State() types.State { return p.state }

// Start implements protocol.Automaton.
func (p *Participant) Start(env protocol.Env) {
	if p.state == types.StateWait {
		p.armPatience(env)
	}
}

func (p *Participant) armPatience(env protocol.Env) {
	p.timerSeq++
	env.SetTimer(protocol.ParticipantPatience(env), p.timerSeq)
}

// OnTimer implements protocol.Automaton.
func (p *Participant) OnTimer(token int, env protocol.Env) {
	if token != p.timerSeq || p.state != types.StateWait || p.patienceLeft <= 0 {
		return
	}
	p.patienceLeft--
	env.Tracef("%s: %s uncertain and coordinator silent, starting cooperative termination", p.txn, env.Self())
	env.RequestTermination(p.txn)
	p.armPatience(env)
}

// OnMessage implements protocol.Automaton.
func (p *Participant) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	switch v := m.(type) {
	case msg.VoteReq:
		p.onVoteReq(from, v, env)
	case msg.Commit:
		if p.state == types.StateWait {
			p.state = types.StateCommitted
			env.Commit(p.txn)
			env.Send(from, msg.Done{Txn: p.txn})
		}
	case msg.Abort:
		if !p.state.Terminal() {
			p.state = types.StateAborted
			env.Abort(p.txn)
			env.Send(from, msg.Done{Txn: p.txn})
		}
	case msg.DecisionReq:
		resp := msg.DecisionResp{Txn: p.txn}
		switch p.state {
		case types.StateCommitted:
			resp.Decision = types.DecisionCommit
		case types.StateAborted:
			resp.Decision = types.DecisionAbort
		case types.StateInitial:
			// We have not voted, so the coordinator cannot have decided to
			// commit; abort unilaterally and say so.
			resp.Uncommitted = true
			p.state = types.StateAborted
			env.Abort(p.txn)
		}
		env.Send(from, resp)
		if p.state == types.StateWait {
			p.armPatience(env)
		}
	case msg.StateReq:
		env.Send(from, msg.StateResp{Txn: p.txn, Epoch: v.Epoch, State: p.state})
		// As with DecisionReq: reporting q promises a no vote afterwards.
		if p.state == types.StateInitial {
			p.state = types.StateAborted
			env.Abort(p.txn)
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
			env.Append(wal.Record{Type: wal.RecVotedNo, Txn: p.txn})
			env.Send(from, msg.VoteResp{Txn: p.txn, Vote: types.VoteNo})
			p.state = types.StateAborted
			env.Abort(p.txn)
		}
	case types.StateWait:
		env.Send(from, msg.VoteResp{Txn: p.txn, Vote: types.VoteYes})
	}
}

// --- cooperative terminator ---

// Terminator is 2PC's cooperative termination protocol: poll every reachable
// participant for the decision. If anyone knows it, adopt and distribute it;
// if anyone has not voted, abort is safe; if everyone reachable is
// uncertain, the transaction blocks until a failure recovers.
//
// The poll closes on the reply that settles it — every participant has
// answered, or one reports COMMIT, which nothing outranks — and the 2T window
// only bounds the wait for silent sites. An abort or "uncommitted" reply does
// not close it while someone is silent: a later COMMIT report would win.
type Terminator struct {
	txn          types.TxnID
	participants []types.SiteID
	epoch        uint32
	resp         map[types.SiteID]msg.DecisionResp
	done         bool
}

// Start implements protocol.Automaton.
func (t *Terminator) Start(env protocol.Env) {
	t.resp = make(map[types.SiteID]msg.DecisionResp)
	env.Tracef("%s: cooperative terminator %s polls decisions", t.txn, env.Self())
	for _, p := range t.participants {
		env.Send(p, msg.DecisionReq{Txn: t.txn})
	}
	env.SetTimer(protocol.AckWindow(env), tokCollect)
}

// OnMessage implements protocol.Automaton.
func (t *Terminator) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	v, ok := m.(msg.DecisionResp)
	if !ok || t.done {
		return
	}
	t.resp[from] = v
	why := "all answered"
	if v.Decision == types.DecisionCommit {
		why = "commit reported"
	} else if len(t.resp) < len(t.participants) {
		return
	}
	env.Tracef("%s: cooperative terminator %s poll closed: %s at %d/%d", t.txn, env.Self(), why, len(t.resp), len(t.participants))
	t.decide(env)
}

// Finished reports that the poll has closed (decided or blocked); the
// terminator ignores everything from then on.
func (t *Terminator) Finished() bool { return t.done }

// OnTimer implements protocol.Automaton: the window ran out on a silent site.
func (t *Terminator) OnTimer(token int, env protocol.Env) {
	if token == tokCollect && !t.done {
		t.decide(env)
	}
}

// decide closes the poll on the replies so far.
func (t *Terminator) decide(env protocol.Env) {
	t.done = true
	sites := make([]types.SiteID, 0, len(t.resp))
	for s := range t.resp {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })

	decision := types.DecisionNone
	for _, s := range sites {
		switch t.resp[s].Decision {
		case types.DecisionCommit:
			decision = types.DecisionCommit
		case types.DecisionAbort:
			if decision == types.DecisionNone {
				decision = types.DecisionAbort
			}
		}
	}
	if decision == types.DecisionNone {
		for _, s := range sites {
			if t.resp[s].Uncommitted {
				decision = types.DecisionAbort // safe: that site never voted
				break
			}
		}
	}
	if decision == types.DecisionNone {
		env.Tracef("%s: all reachable participants uncertain — 2PC blocks", t.txn)
		env.Block(t.txn)
		env.TerminatorDone(t.txn)
		return
	}
	env.Tracef("%s: cooperative terminator distributes %s", t.txn, decision)
	for _, p := range t.participants {
		if decision == types.DecisionCommit {
			env.Send(p, msg.Commit{Txn: t.txn})
		} else {
			env.Send(p, msg.Abort{Txn: t.txn})
		}
	}
	env.TerminatorDone(t.txn)
}
