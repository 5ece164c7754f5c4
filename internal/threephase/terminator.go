package threephase

import (
	"fmt"
	"sort"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/types"
)

// Verdict is the phase-2 classification of a termination coordinator after
// polling local states (the five-way branch of Figs. 5 and 8).
type Verdict uint8

// Verdicts.
const (
	// VerdictCommit terminates immediately with COMMIT.
	VerdictCommit Verdict = iota
	// VerdictAbort terminates immediately with ABORT.
	VerdictAbort
	// VerdictTryCommit attempts to establish a commit quorum via
	// PREPARE-TO-COMMIT.
	VerdictTryCommit
	// VerdictTryAbort attempts to establish an abort quorum via
	// PREPARE-TO-ABORT.
	VerdictTryAbort
	// VerdictBlock blocks the transaction in this partition.
	VerdictBlock
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictCommit:
		return "commit"
	case VerdictAbort:
		return "abort"
	case VerdictTryCommit:
		return "try-commit"
	case VerdictTryAbort:
		return "try-abort"
	default:
		return "block"
	}
}

// StateTally summarizes the local states collected in phase 1.
type StateTally struct {
	// ByState holds the responding sites per state, ascending.
	ByState map[types.State][]types.SiteID
	// Responders holds every responding site, ascending.
	Responders []types.SiteID
}

// NewStateTally builds a tally from collected responses.
func NewStateTally(resp map[types.SiteID]types.State) StateTally {
	t := StateTally{ByState: make(map[types.State][]types.SiteID)}
	//qlint:allow determinism both collected slices (per-state buckets and Responders) are sorted below before anyone reads them
	for s, st := range resp {
		t.ByState[st] = append(t.ByState[st], s)
		t.Responders = append(t.Responders, s)
	}
	for st := range t.ByState {
		sort.Slice(t.ByState[st], func(i, j int) bool { return t.ByState[st][i] < t.ByState[st][j] })
	}
	sort.Slice(t.Responders, func(i, j int) bool { return t.Responders[i] < t.Responders[j] })
	return t
}

// Any reports whether at least one responder is in the given state.
func (t StateTally) Any(st types.State) bool { return len(t.ByState[st]) > 0 }

// In returns the responders in the given state.
func (t StateTally) In(st types.State) []types.SiteID { return t.ByState[st] }

// NotIn returns the responders not in the given state.
func (t StateTally) NotIn(st types.State) []types.SiteID {
	var out []types.SiteID
	for _, s := range t.Responders {
		if !containsSite(t.ByState[st], s) {
			out = append(out, s)
		}
	}
	return out
}

func containsSite(ss []types.SiteID, x types.SiteID) bool {
	for _, s := range ss {
		if s == x {
			return true
		}
	}
	return false
}

// Rules is the protocol-specific quorum logic of a termination coordinator.
type Rules interface {
	// Name identifies the rule set in traces ("TP1", "TP2", "SkeenQ-term",
	// "3PC-term").
	Name() string
	// Decide classifies the phase-1 tally.
	Decide(env protocol.Env, tally StateTally) Verdict
	// CommitConfirmed reports whether the given sites (phase-1 PC reporters
	// plus phase-2 PC-ackers) establish the commit quorum.
	CommitConfirmed(env protocol.Env, sites []types.SiteID) bool
	// AbortConfirmed reports whether the given sites (phase-1 PA reporters
	// plus phase-2 PA-ackers) establish the abort quorum.
	AbortConfirmed(env protocol.Env, sites []types.SiteID) bool
}

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
// and 8, parameterized by Rules. Phase 1 polls local states from all
// reachable participants; phase 2 classifies; phase 3 confirms the attempted
// quorum within a 2T window and either distributes the decision or restarts
// the election protocol (the protocol is reenterable).
type Terminator struct {
	txn          types.TxnID
	ws           types.Writeset
	participants []types.SiteID
	epoch        uint32
	rules        Rules

	phase   termPhase
	resp    map[types.SiteID]types.State
	confirm map[types.SiteID]bool
}

// NewTerminator builds a termination coordinator for one partition round.
func NewTerminator(txn types.TxnID, ws types.Writeset, participants []types.SiteID, epoch uint32, rules Rules) *Terminator {
	return &Terminator{
		txn:          txn,
		ws:           ws,
		participants: participants,
		epoch:        epoch,
		rules:        rules,
		resp:         make(map[types.SiteID]types.State),
		confirm:      make(map[types.SiteID]bool),
	}
}

// Start implements protocol.Automaton: phase 1, request local states from
// all reachable participants (including this site itself).
func (t *Terminator) Start(env protocol.Env) {
	env.Tracef("%s: terminator %s (epoch %d, %s) polls states", t.txn, env.Self(), t.epoch, t.rules.Name())
	for _, p := range t.participants {
		env.Send(p, msg.StateReq{Txn: t.txn, Coord: env.Self(), Epoch: t.epoch})
	}
	env.SetTimer(protocol.AckWindow(env), tokCollect)
}

// OnMessage implements protocol.Automaton.
func (t *Terminator) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	switch v := m.(type) {
	case msg.StateResp:
		if t.phase == tpCollect && v.Epoch == t.epoch {
			t.resp[from] = v.State
		}
	case msg.PCAck:
		if t.phase == tpConfirmCommit {
			t.confirm[from] = true
		}
	case msg.PAAck:
		if t.phase == tpConfirmAbort {
			t.confirm[from] = true
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
			if t.rules.CommitConfirmed(env, keys(t.confirm)) {
				t.distribute(env, types.DecisionCommit)
			} else {
				t.reenter(env, "commit quorum not confirmed")
			}
		case tpConfirmAbort:
			if t.rules.AbortConfirmed(env, keys(t.confirm)) {
				t.distribute(env, types.DecisionAbort)
			} else {
				t.reenter(env, "abort quorum not confirmed")
			}
		}
	}
}

// evaluate is phase 2: classify collected states and act.
func (t *Terminator) evaluate(env protocol.Env) {
	tally := NewStateTally(t.resp)
	verdict := t.rules.Decide(env, tally)
	env.Tracef("%s: terminator %s tallied %s → %s", t.txn, env.Self(), tallyString(tally), verdict)
	switch verdict {
	case VerdictCommit:
		t.distribute(env, types.DecisionCommit)
	case VerdictAbort:
		t.distribute(env, types.DecisionAbort)
	case VerdictTryCommit:
		t.phase = tpConfirmCommit
		for _, s := range tally.In(types.StatePC) {
			t.confirm[s] = true // phase-1 PC reporters count toward the quorum
		}
		for _, s := range tally.In(types.StateWait) {
			env.Send(s, msg.PrepareToCommit{Txn: t.txn})
		}
		env.SetTimer(protocol.AckWindow(env), tokConfirm)
	case VerdictTryAbort:
		t.phase = tpConfirmAbort
		for _, s := range tally.In(types.StatePA) {
			t.confirm[s] = true // phase-1 PA reporters count toward the quorum
		}
		for _, s := range tally.In(types.StateWait) {
			env.Send(s, msg.PrepareToAbort{Txn: t.txn})
		}
		env.SetTimer(protocol.AckWindow(env), tokConfirm)
	case VerdictBlock:
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

func keys(set map[types.SiteID]bool) []types.SiteID {
	out := make([]types.SiteID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func tallyString(t StateTally) string {
	s := ""
	for _, st := range []types.State{types.StateInitial, types.StateWait, types.StatePC, types.StatePA, types.StateCommitted, types.StateAborted} {
		if n := len(t.ByState[st]); n > 0 {
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
