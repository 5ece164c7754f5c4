// Package protocoltest provides a fake protocol.Env for unit-testing
// automata and quorum rules in isolation from the engine and the network.
package protocoltest

import (
	"fmt"
	"slices"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/sim"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// Sent is one recorded Send call.
type Sent struct {
	To  types.SiteID
	Msg msg.Message
}

// Timer is one recorded SetTimer call.
type Timer struct {
	D     sim.Duration
	Token int
}

// Env is a recording fake for protocol.Env.
type Env struct {
	SelfID types.SiteID
	Asgn   *voting.Assignment
	Clock  sim.Time
	NetT   sim.Duration
	LockOK bool
	// Suspects are the sites Suspected reports.
	Suspects []types.SiteID

	Sends      []Sent
	Timers     []Timer
	Logs       []wal.Record
	Committed  []types.TxnID
	Aborted    []types.TxnID
	Blocked    []types.TxnID
	TermReqs   []types.TxnID
	TermDones  []types.TxnID
	TraceLines []string
}

var _ protocol.Env = (*Env)(nil)

// New creates a fake env for the given site with locks granting by default.
func New(self types.SiteID, asgn *voting.Assignment) *Env {
	return &Env{SelfID: self, Asgn: asgn, NetT: 10 * sim.Millisecond, LockOK: true}
}

// Self implements protocol.Env.
func (e *Env) Self() types.SiteID { return e.SelfID }

// Now implements protocol.Env.
func (e *Env) Now() sim.Time { return e.Clock }

// T implements protocol.Env.
func (e *Env) T() sim.Duration { return e.NetT }

// Assignment implements protocol.Env.
func (e *Env) Assignment() *voting.Assignment { return e.Asgn }

// Send implements protocol.Env.
func (e *Env) Send(to types.SiteID, m msg.Message) {
	e.Sends = append(e.Sends, Sent{To: to, Msg: m})
}

// SetTimer implements protocol.Env.
func (e *Env) SetTimer(d sim.Duration, token int) {
	e.Timers = append(e.Timers, Timer{D: d, Token: token})
}

// Append implements protocol.Env.
func (e *Env) Append(rec wal.Record) { e.Logs = append(e.Logs, rec) }

// Commit implements protocol.Env.
func (e *Env) Commit(txn types.TxnID) { e.Committed = append(e.Committed, txn) }

// Abort implements protocol.Env.
func (e *Env) Abort(txn types.TxnID) { e.Aborted = append(e.Aborted, txn) }

// Block implements protocol.Env.
func (e *Env) Block(txn types.TxnID) { e.Blocked = append(e.Blocked, txn) }

// RequestTermination implements protocol.Env.
func (e *Env) RequestTermination(txn types.TxnID) { e.TermReqs = append(e.TermReqs, txn) }

// TerminatorDone implements protocol.Env.
func (e *Env) TerminatorDone(txn types.TxnID) { e.TermDones = append(e.TermDones, txn) }

// Suspected implements protocol.Env.
func (e *Env) Suspected(s types.SiteID) bool { return slices.Contains(e.Suspects, s) }

// AcquireLocks implements protocol.Env.
func (e *Env) AcquireLocks(types.TxnID) bool { return e.LockOK }

// Tracef implements protocol.Env.
func (e *Env) Tracef(format string, args ...any) {
	e.TraceLines = append(e.TraceLines, fmt.Sprintf(format, args...))
}

// SentTo returns the messages sent to one site.
func (e *Env) SentTo(id types.SiteID) []msg.Message {
	var out []msg.Message
	for _, s := range e.Sends {
		if s.To == id {
			out = append(out, s.Msg)
		}
	}
	return out
}

// SentKinds returns the kinds of all sends in order.
func (e *Env) SentKinds() []msg.Kind {
	out := make([]msg.Kind, len(e.Sends))
	for i, s := range e.Sends {
		out[i] = s.Msg.Kind()
	}
	return out
}

// LastTimer returns the most recent timer set, or a zero Timer.
func (e *Env) LastTimer() Timer {
	if len(e.Timers) == 0 {
		return Timer{}
	}
	return e.Timers[len(e.Timers)-1]
}

// Reset clears all recordings.
func (e *Env) Reset() {
	e.Sends, e.Timers, e.Logs = nil, nil, nil
	e.Committed, e.Aborted, e.Blocked = nil, nil, nil
	e.TermReqs, e.TermDones, e.TraceLines = nil, nil, nil
}

// Tally builds the phase-1 tally of a partition group whose participants
// report the given states.
func Tally(states map[types.SiteID]types.State) *quorumcalc.Tally {
	t := &quorumcalc.Tally{}
	for s, st := range states {
		t.Add(s, st)
	}
	return t
}
