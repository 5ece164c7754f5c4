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
	tpConfirm
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
// quorum and either distributes the decision or restarts the election
// protocol (the protocol is reenterable).
//
// Both waits are closed by the reply they wait for: the poll as soon as no
// outstanding reply could change the verdict (Quorums.Settled), the
// confirmation as soon as the attempted quorum is confirmed
// (Quorums.Confirmed). The 2T windows only bound the wait for sites that stay
// silent, and the decision is always the one the window's expiry would have
// reached. The poll also does
// not wait for unanswered suspects (Env.Suspected); the package doc says why
// that is safe.
type Terminator struct {
	txn          types.TxnID
	ws           types.Writeset
	participants []types.SiteID
	epoch        uint32
	q            *quorumcalc.Quorums

	phase termPhase
	// tally holds the replies, one participant set per state.
	tally quorumcalc.Tally
	// try is the verdict being confirmed (try-commit or try-abort).
	try quorumcalc.Verdict
	// confirm holds the participants counted toward the attempted quorum:
	// phase-1 reporters already in the target state plus phase-2 ackers.
	// pending holds those sent a PREPARE that have not acknowledged it yet.
	confirm, pending quorumcalc.Set
}

// NewTerminator builds a termination coordinator for one partition round
// under the rule q, which Start compiles unless another automaton of the
// transaction already has.
func NewTerminator(txn types.TxnID, ws types.Writeset, participants []types.SiteID, epoch uint32, q *quorumcalc.Quorums) *Terminator {
	return &Terminator{txn: txn, ws: ws, participants: participants, epoch: epoch, q: q}
}

// Start implements protocol.Automaton: phase 1, request local states from
// all reachable participants (including this site itself).
func (t *Terminator) Start(env protocol.Env) {
	t.q.Compile(env.Assignment(), t.ws, t.participants)
	t.tally.Bind(t.q.Frame())
	env.Tracef("%s: terminator %s (epoch %d, %s) polls states", t.txn, env.Self(), t.epoch, t.q.Name())
	for _, p := range t.participants {
		env.Send(p, msg.StateReq{Txn: t.txn, Coord: env.Self(), Epoch: t.epoch})
	}
	env.SetTimer(protocol.AckWindow(env), tokCollect)
}

// OnMessage implements protocol.Automaton.
func (t *Terminator) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	i := t.q.Index(from)
	if i < 0 {
		return
	}
	switch v := m.(type) {
	case msg.StateResp:
		if t.phase != tpCollect || v.Epoch != t.epoch || !v.State.Valid() {
			return
		}
		t.tally.Add(from, v.State)
		if polled := t.polled(env); t.q.Settled(&t.tally, polled) {
			why := "commit settled"
			switch n := t.tally.Len(); {
			case n == len(t.participants):
				why = "all answered"
			case n >= polled:
				why = "all unsuspected answered"
			}
			env.Tracef("%s: terminator %s collect closed: %s at %d/%d", t.txn, env.Self(), why, t.tally.Len(), len(t.participants))
			t.evaluate(env)
		}
	case msg.PCAck:
		t.onAck(i, quorumcalc.VerdictTryCommit, env)
	case msg.PAAck:
		t.onAck(i, quorumcalc.VerdictTryAbort, env)
	}
}

// onAck counts participant i's acknowledgement of the PREPARE that try
// sends.
func (t *Terminator) onAck(i int, try quorumcalc.Verdict, env protocol.Env) {
	if t.phase != tpConfirm || t.try != try || t.confirm.Has(i) {
		return
	}
	t.confirm.Add(i)
	t.pending.Remove(i)
	t.closeConfirm(env, false)
}

// Finished reports that this termination round is over (decided, blocked or
// re-entered); the terminator ignores everything from then on.
func (t *Terminator) Finished() bool { return t.phase == tpDone }

// OnTimer implements protocol.Automaton: a window ran out on a silent site.
func (t *Terminator) OnTimer(token int, env protocol.Env) {
	switch {
	case token == tokCollect && t.phase == tpCollect:
		t.evaluate(env)
	case token == tokConfirm && t.phase == tpConfirm:
		t.closeConfirm(env, true)
	}
}

// polled counts the participants the poll still waits for or has heard
// from: all of them, except the suspects that have not answered.
func (t *Terminator) polled(env protocol.Env) int {
	n := 0
	for i, p := range t.participants {
		if t.tally.Answered(i) || !env.Suspected(p) {
			n++
		}
	}
	return n
}

// evaluate is phase 2: classify the tally and act.
func (t *Terminator) evaluate(env protocol.Env) {
	tally := &t.tally
	verdict := t.q.Decide(tally)
	env.Tracef("%s: terminator %s tallied %s → %s", t.txn, env.Self(), tallyString(tally), verdict)
	switch verdict {
	case quorumcalc.VerdictCommit:
		t.distribute(env, types.DecisionCommit)
	case quorumcalc.VerdictAbort:
		t.distribute(env, types.DecisionAbort)
	case quorumcalc.VerdictTryCommit, quorumcalc.VerdictTryAbort:
		// Phase-1 reporters already in the target state count toward the
		// quorum; the waiting ones are asked to move there.
		target, prepare := types.StatePC, msg.Message(msg.PrepareToCommit{Txn: t.txn})
		if verdict == quorumcalc.VerdictTryAbort {
			target, prepare = types.StatePA, msg.PrepareToAbort{Txn: t.txn}
		}
		t.phase, t.try = tpConfirm, verdict
		t.confirm = append(t.confirm[:0], tally.In(target)...)
		t.pending = append(t.pending[:0], tally.In(types.StateWait)...)
		f := t.q.Frame()
		for i := t.pending.Next(0); i >= 0; i = t.pending.Next(i + 1) {
			env.Send(f.Site(i), prepare)
		}
		// With nobody to ask there may be nothing to wait for.
		if t.closeConfirm(env, false); t.phase == tpConfirm {
			env.SetTimer(protocol.AckWindow(env), tokConfirm)
		}
	case quorumcalc.VerdictBlock:
		t.phase = tpDone
		env.Block(t.txn)
		env.TerminatorDone(t.txn)
	}
}

// closeConfirm is phase 3: distribute the attempted decision once the rule
// says it is confirmed; if the window expired short of that, fall back to
// the election protocol.
func (t *Terminator) closeConfirm(env protocol.Env, expired bool) {
	d, q, side := types.DecisionCommit, "Qc", "commit"
	if t.try == quorumcalc.VerdictTryAbort {
		d, q, side = types.DecisionAbort, "Qa", "abort"
	}
	waiting := !expired && t.pending.Len() > 0
	switch {
	case t.q.Confirmed(t.try, t.confirm, waiting):
		if !expired {
			env.Tracef("%s: terminator %s confirm closed: %s confirmed by %d", t.txn, env.Self(), q, t.confirm.Len())
		}
		t.distribute(env, d)
	case expired:
		t.reenter(env, side+" quorum not confirmed")
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
