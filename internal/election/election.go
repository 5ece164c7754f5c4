// Package election implements the coordinator election protocol invoked at
// the start of the termination protocols (after Garcia-Molina, "Elections in
// a distributed computing system", 1982).
//
// The paper only requires that *some* coordinator emerge in each partition —
// explicitly not a unique one: "our protocols do not require the election of
// a unique coordinator in each partition". This implementation is an
// invitation/bully hybrid with lowest-site-ID priority. Lost messages can
// (and, under the scripted scenario of Example 3, deliberately do) yield
// several concurrent coordinators, which the termination protocols must and
// do tolerate. Suspicion is one more source: a candidate does not call a
// better candidate its site suspects (protocol.Env.Suspected), so a live but
// wrongly suspected one may end up running a terminator beside it.
package election

import (
	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/types"
)

// Timer tokens.
const (
	tokWaitBetter = iota + 1 // waiting for a lower-ID site to claim the role
	tokWaitCoord             // deferred; waiting for the winner to act
)

// phase of the election FSM.
type phase uint8

const (
	phaseIdle phase = iota
	phaseCampaign
	phaseDeferred
	phaseWon
	phaseStopped
)

// FSM is the per-site election automaton for one transaction. A site in a
// partition campaigns by calling every lower-ID participant it does not
// suspect of having failed (protocol.Env.Suspected); if none answers within
// 2T, or there is none to call, the site wins and announces itself. A site
// that hears from a better (lower-ID) candidate defers; if the expected
// coordinator then stays silent for 3T, the site campaigns again with a
// higher ballot.
type FSM struct {
	txn          types.TxnID
	self         types.SiteID
	participants []types.SiteID
	epoch        uint32
	ballot       uint64
	ph           phase
	// OnElected is invoked (once per win) when this site becomes
	// coordinator of the termination protocol.
	OnElected func(epoch uint32)
	// OnRetry is invoked when the FSM wants a fresh election round (the
	// expected winner stayed silent). The host decides whether the retry
	// budget allows it.
	OnRetry func()
}

// New creates an election FSM. participants must include self.
func New(txn types.TxnID, self types.SiteID, participants []types.SiteID, epoch uint32) *FSM {
	return &FSM{
		txn:          txn,
		self:         self,
		participants: participants,
		epoch:        epoch,
		ballot:       uint64(epoch)<<32 | uint64(uint32(self)),
	}
}

// Epoch returns the election epoch.
func (f *FSM) Epoch() uint32 { return f.epoch }

// Won reports whether this site won the election.
func (f *FSM) Won() bool { return f.ph == phaseWon }

// Stop deactivates the FSM (e.g. the transaction terminated mid-election).
func (f *FSM) Stop() { f.ph = phaseStopped }

// Start implements protocol.Automaton.
func (f *FSM) Start(env protocol.Env) {
	f.ph = phaseCampaign
	env.Tracef("election: %s campaigns for %s (epoch %d)", f.self, f.txn, f.epoch)
	sent := false
	for _, p := range f.participants {
		if p < f.self && !env.Suspected(p) {
			env.Send(p, msg.ElectionCall{Txn: f.txn, Ballot: f.ballot, Candidate: f.self})
			sent = true
		}
	}
	if !sent {
		// No better-priority site exists, or every one is suspected of
		// having failed: win immediately.
		f.win(env)
		return
	}
	env.SetTimer(protocol.AckWindow(env), tokWaitBetter)
}

// OnMessage implements protocol.Automaton.
func (f *FSM) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	if f.ph == phaseStopped {
		return
	}
	switch v := m.(type) {
	case msg.ElectionCall:
		// A higher-ID candidate asks whether we (a better candidate) are
		// alive. Claim priority and campaign ourselves if idle.
		if v.Candidate > f.self {
			env.Send(from, msg.ElectionOK{Txn: f.txn, Ballot: v.Ballot})
			if f.ph == phaseIdle {
				f.Start(env)
			}
		}
	case msg.ElectionOK:
		// A better candidate is alive; defer to it.
		if f.ph == phaseCampaign && v.Ballot == f.ballot {
			f.ph = phaseDeferred
			env.Tracef("election: %s defers for %s (epoch %d)", f.self, f.txn, f.epoch)
			env.SetTimer(protocol.ParticipantPatience(env), tokWaitCoord)
		}
	case msg.CoordAnnounce:
		// Someone won. If we also think we won, keep both coordinators
		// running — the termination protocols tolerate this by design.
		if f.ph == phaseCampaign || f.ph == phaseDeferred {
			f.ph = phaseDeferred
			env.Tracef("election: %s observes coordinator %s for %s", f.self, v.Coord, f.txn)
			env.SetTimer(protocol.ParticipantPatience(env), tokWaitCoord)
		}
	}
}

// OnTimer implements protocol.Automaton.
func (f *FSM) OnTimer(token int, env protocol.Env) {
	if f.ph == phaseStopped {
		return
	}
	switch token {
	case tokWaitBetter:
		if f.ph == phaseCampaign {
			f.win(env)
		}
	case tokWaitCoord:
		if f.ph == phaseDeferred {
			// The supposed winner went silent; ask the host for a retry.
			env.Tracef("election: %s saw no progress for %s, requesting retry", f.self, f.txn)
			f.ph = phaseStopped
			if f.OnRetry != nil {
				f.OnRetry()
			}
		}
	}
}

func (f *FSM) win(env protocol.Env) {
	f.ph = phaseWon
	env.Tracef("election: %s wins for %s (epoch %d)", f.self, f.txn, f.epoch)
	for _, p := range f.participants {
		if p != f.self {
			env.Send(p, msg.CoordAnnounce{Txn: f.txn, Ballot: f.ballot, Coord: f.self})
		}
	}
	if f.OnElected != nil {
		f.OnElected(f.epoch)
	}
}
