package threephase

import (
	"fmt"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
)

type termPhase uint8

const (
	tpCollect termPhase = iota
	tpConfirmCommit
	tpConfirmAbort
	tpDone
)

// Terminator timer tokens.
const (
	tokCollect = iota + 1
	tokConfirm
)

// Terminator is the generic three-phase termination coordinator of Figs. 5
// and 8, parameterized by its rule table. Phase 1 polls local states from all
// reachable participants; phase 2 classifies; phase 3 confirms the attempted
// quorum within a 2T window and either distributes the decision or restarts
// the election protocol (the protocol is reenterable).
type Terminator struct {
	txn          types.TxnID
	participants []types.SiteID
	epoch        uint32
	rule         quorumcalc.Rule

	phase termPhase
	resp  map[types.SiteID]types.State
	// confirm holds, without duplicates, the sites counted toward the
	// attempted quorum: phase-1 reporters already in the target state plus
	// phase-2 ackers.
	confirm []types.SiteID
}

// NewTerminator builds a termination coordinator for one partition round.
func NewTerminator(txn types.TxnID, participants []types.SiteID, epoch uint32, rule quorumcalc.Rule) *Terminator {
	return &Terminator{
		txn:          txn,
		participants: participants,
		epoch:        epoch,
		rule:         rule,
		resp:         make(map[types.SiteID]types.State),
	}
}

// Start implements protocol.Automaton: phase 1, request local states from
// all reachable participants (including this site itself).
func (t *Terminator) Start(env protocol.Env) {
	env.Tracef("%s: terminator %s (epoch %d, %s) polls states", t.txn, env.Self(), t.epoch, t.rule.Name)
	for _, p := range t.participants {
		env.Send(p, msg.StateReq{Txn: t.txn, Coord: env.Self(), Epoch: t.epoch})
	}
	env.SetTimer(protocol.AckWindow(env), tokCollect)
}

// OnMessage implements protocol.Automaton.
func (t *Terminator) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	if !contains(t.participants, from) {
		return
	}
	switch v := m.(type) {
	case msg.StateResp:
		if t.phase == tpCollect && v.Epoch == t.epoch && v.State.Valid() {
			t.resp[from] = v.State
		}
	case msg.PCAck:
		if t.phase == tpConfirmCommit && !contains(t.confirm, from) {
			t.confirm = append(t.confirm, from)
		}
	case msg.PAAck:
		if t.phase == tpConfirmAbort && !contains(t.confirm, from) {
			t.confirm = append(t.confirm, from)
		}
	}
}

// Finished reports that this termination round is over (decided, blocked or
// re-entered); the terminator ignores everything from then on.
func (t *Terminator) Finished() bool { return t.phase == tpDone }

// OnTimer implements protocol.Automaton.
func (t *Terminator) OnTimer(token int, env protocol.Env) {
	switch token {
	case tokCollect:
		if t.phase == tpCollect {
			t.evaluate(env)
		}
	case tokConfirm:
		switch t.phase {
		case tpConfirmCommit:
			if t.rule.Qc(env.Assignment(), t.confirm) {
				t.distribute(env, types.DecisionCommit)
			} else {
				t.reenter(env, "commit quorum not confirmed")
			}
		case tpConfirmAbort:
			if t.rule.Qa(env.Assignment(), t.confirm) {
				t.distribute(env, types.DecisionAbort)
			} else {
				t.reenter(env, "abort quorum not confirmed")
			}
		}
	}
}

// evaluate is phase 2: classify collected states and act. The tally is
// filled in participant (ascending site) order and holds participants only.
func (t *Terminator) evaluate(env protocol.Env) {
	var tally quorumcalc.Tally
	for _, p := range t.participants {
		if st, ok := t.resp[p]; ok {
			tally.Add(p, st)
		}
	}
	verdict := t.rule.Decide(env.Assignment(), &tally)
	env.Tracef("%s: terminator %s tallied %s → %s", t.txn, env.Self(), tallyString(&tally), verdict)
	switch verdict {
	case quorumcalc.VerdictCommit:
		t.distribute(env, types.DecisionCommit)
	case quorumcalc.VerdictAbort:
		t.distribute(env, types.DecisionAbort)
	case quorumcalc.VerdictTryCommit:
		t.phase = tpConfirmCommit
		// Phase-1 PC reporters count toward the quorum.
		t.confirm = append(t.confirm, tally.Sites(types.StatePC)...)
		for _, s := range tally.Sites(types.StateWait) {
			env.Send(s, msg.PrepareToCommit{Txn: t.txn})
		}
		env.SetTimer(protocol.AckWindow(env), tokConfirm)
	case quorumcalc.VerdictTryAbort:
		t.phase = tpConfirmAbort
		// Phase-1 PA reporters count toward the quorum.
		t.confirm = append(t.confirm, tally.Sites(types.StatePA)...)
		for _, s := range tally.Sites(types.StateWait) {
			env.Send(s, msg.PrepareToAbort{Txn: t.txn})
		}
		env.SetTimer(protocol.AckWindow(env), tokConfirm)
	case quorumcalc.VerdictBlock:
		t.phase = tpDone
		env.Block(t.txn)
		env.TerminatorDone(t.txn)
	}
}

func (t *Terminator) distribute(env protocol.Env, d types.Decision) {
	t.phase = tpDone
	env.Tracef("%s: terminator %s distributes %s", t.txn, env.Self(), d)
	for _, p := range t.participants {
		switch d {
		case types.DecisionCommit:
			env.Send(p, msg.Commit{Txn: t.txn})
		case types.DecisionAbort:
			env.Send(p, msg.Abort{Txn: t.txn})
		}
	}
	env.TerminatorDone(t.txn)
}

// reenter restarts the election protocol, as Figs. 5 and 8 prescribe when
// the phase-3 acknowledgements fall short ("else start the election
// protocol").
func (t *Terminator) reenter(env protocol.Env, why string) {
	t.phase = tpDone
	env.Tracef("%s: terminator %s re-enters election (%s)", t.txn, env.Self(), why)
	env.TerminatorDone(t.txn)
	env.RequestTermination(t.txn)
}

func tallyString(t *quorumcalc.Tally) string {
	s := ""
	for _, st := range []types.State{types.StateInitial, types.StateWait, types.StatePC, types.StatePA, types.StateCommitted, types.StateAborted} {
		if n := t.Count(st); n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s:%d", st, n)
		}
	}
	if s == "" {
		return "(no responses)"
	}
	return s
}
