// Package protocol defines the runtime-agnostic contract between commit /
// termination protocol automata and the site that hosts them: the Automaton
// and Env interfaces, the automaton roles, and the paper's timeouts.
//
// Every protocol in this repository (two-phase commit, three-phase commit,
// Skeen's quorum-based protocol, and the paper's quorum-based commit and
// termination protocols 1 and 2) is written as a set of pure, event-driven
// state machines: an automaton consumes messages and timer expirations and
// reacts through the Env interface. core.Spec builds them all: its five
// protocols share one participant, coordinator and terminator (package
// threephase) and differ only in their quorumcalc.Rule. The same automata
// run unchanged under the deterministic discrete-event simulator (package
// engine) and the live goroutine runtime (package live): both drive the one
// site kernel (package site) that implements Env, and differ only in what
// supplies its time, timers, sends and log.
package protocol

import (
	"qcommit/internal/msg"
	"qcommit/internal/sim"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// Env is the world as seen by one automaton at one site. All methods are
// non-blocking; effects (sends, timers) are applied by the hosting runtime.
type Env interface {
	// Self is the hosting site's ID.
	Self() types.SiteID
	// Now is the current (virtual or wall-clock-mapped) time.
	Now() sim.Time
	// T is the longest end-to-end propagation delay of the network; the
	// paper's timeout periods are expressed as multiples of it (2T, 3T).
	T() sim.Duration
	// Assignment is the cluster-wide vote assignment for replicated items.
	Assignment() *voting.Assignment

	// Send transmits a message to another site (or to Self; self-delivery is
	// routed like any other message).
	Send(to types.SiteID, m msg.Message)
	// SetTimer schedules OnTimer(token) after d. Automata are responsible
	// for ignoring stale timers (e.g. with epoch counters); timers are not
	// cancellable.
	SetTimer(d sim.Duration, token int)

	// Append forces a record to the site's write-ahead log before returning.
	Append(rec wal.Record)

	// Commit asks the host to irrevocably commit the transaction locally:
	// log COMMIT, apply the writeset, release locks, record the outcome.
	Commit(txn types.TxnID)
	// Abort is the abort counterpart of Commit.
	Abort(txn types.TxnID)
	// Block records that the termination attempt for txn is blocked in this
	// partition; locks remain held. A later termination round may unblock.
	Block(txn types.TxnID)
	// RequestTermination reports that the normal commitment procedure looks
	// interrupted (timeout); the host runs the election protocol and, if
	// this site wins, starts the termination-protocol coordinator.
	RequestTermination(txn types.TxnID)
	// TerminatorDone reports that a termination coordinator finished its
	// round (decided, blocked, or handed off to a re-election).
	TerminatorDone(txn types.TxnID)
	// Suspected reports whether the hosting site suspects site s of having
	// failed, for this automaton's transaction. A suspicion may be wrong:
	// automata use it only to stop waiting sooner, never to decide
	// differently (package threephase gives the argument).
	Suspected(s types.SiteID) bool

	// AcquireLocks takes exclusive locks on every local copy of the
	// transaction's written items, returning false if any is unavailable.
	// Participants turn a false return into a no vote.
	AcquireLocks(txn types.TxnID) bool

	// Tracef emits a trace event for message-ladder rendering and debugging.
	Tracef(format string, args ...any)
}

// Automaton is an event-driven protocol state machine.
type Automaton interface {
	// Start runs when the automaton is installed.
	Start(env Env)
	// OnMessage delivers a routed protocol message.
	OnMessage(from types.SiteID, m msg.Message, env Env)
	// OnTimer delivers an expired timer set via Env.SetTimer.
	OnTimer(token int, env Env)
}

// Role classifies automata for message routing by the host.
type Role uint8

// Roles.
const (
	// RoleCoordinator is the commit-protocol coordinator.
	RoleCoordinator Role = iota
	// RoleParticipant is the per-site participant.
	RoleParticipant
	// RoleTerminator is the termination-protocol coordinator elected in a
	// partition.
	RoleTerminator
	// RoleElection is the coordinator-election automaton.
	RoleElection
)

// Timeout multiples used across the protocols, as in the paper: a
// participant that sent a message to the coordinator starts the election
// protocol if it hears nothing within 3T; the termination coordinator's
// poll and acknowledgement windows are 2T.
const (
	// AckWindowT is how long, in units of T, a coordinator or termination
	// coordinator waits for the replies to one round (votes, acks, polled
	// states) and an election candidate for a better one to speak up. It is
	// an upper bound, not a sleep: every such wait ends on the reply that
	// settles it (quorumcalc.Quorums.Settled, Confirmed, Ack), and
	// the window only runs out on a site that stays silent.
	AckWindowT = 2
	// ParticipantPatienceT is the participant's silence tolerance, in units
	// of T.
	ParticipantPatienceT = 3
	// PatienceRounds caps a participant's termination requests (one per
	// expired patience window), so a partition that never heals ends the
	// simulation instead of retrying forever.
	PatienceRounds = 4
)

// AckWindow returns 2T for the given Env.
func AckWindow(env Env) sim.Duration { return sim.Duration(AckWindowT) * env.T() }

// ParticipantPatience returns 3T for the given Env.
func ParticipantPatience(env Env) sim.Duration {
	return sim.Duration(ParticipantPatienceT) * env.T()
}
