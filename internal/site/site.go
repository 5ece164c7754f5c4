// Package site is the per-site transaction kernel: the one implementation of
// how a database site hosts the commit and termination protocols, shared by
// the discrete-event engine (virtual time) and the live runtime (wall clock).
//
// A Kernel owns, for one site:
//
//   - the table of transaction contexts and their retirement: a context lives
//     until its transaction has terminated here and its coordinator-side
//     automata have finished distributing the decision; after that only the
//     outcome is kept, which is all late traffic needs;
//   - automaton installation with generation fencing: every automaton is
//     installed under a fresh generation of its role slot, and a timer armed
//     under a superseded generation never fires;
//   - the message dispatch switch, including the replies a site owes for
//     transactions it holds no participant for, and the never-voted promise
//     those replies make (answering a termination poll "initial" or
//     "uncommitted" commits the site to vote no if the VOTE-REQ still comes);
//   - election start (passive join or campaigning against a round budget) and
//     terminator installation;
//   - the per-transaction suspicion of the coordinator (Txn.coordSuspected),
//     which automata read through Env.Suspected;
//   - the coordinator's abort before phase 1: Begin aborts a transaction whose
//     local copy is already locked, with one ABORT record and no frame (see
//     Begin for why that is safe);
//   - locking the local copies of a writeset, volatile recovery from the WAL
//     image — including the outcome query a restarted site sends at once
//     about every transaction it finds unresolved, which only a site holding
//     the outcome answers — and the irrevocable local commit / abort;
//   - the single protocol.Env handed to automata, one per installed
//     automaton, and the transaction's compiled quorum rule, which its
//     coordinator and every termination round here share.
//
// A context's writeset and participant list are immutable once it exists:
// nothing here, in the automata, the log or the tracker writes them, so the
// kernel adopts a VOTE-REQ's by reference instead of copying them (Txn says
// why every fabric allows that). A Host must not write them either.
//
// It owns no clock, goroutine, mutex or transport. The Host supplies time,
// timers, sends and the write-ahead log, and hears every decision and every
// contradiction of one. The cluster-global access-strategy bookkeeping is not
// the host's: the kernel reports each applied commit and each installed copy
// straight to the cluster's voting.Tracker (Config.Tracker).
//
// A Kernel is single-threaded: every method, and every Host callback it makes,
// runs on the caller's thread, and the host must serialize all calls into one
// kernel (the engine's scheduler does so by construction, the live node by
// its mailbox goroutine). Between Crash and Recover the host delivers nothing.
//
// # Durability
//
// Every record reaches the log through Host.Append. A forced record is one
// some restart rule reads: the host must not let anything the appending event
// sends or publishes after it leave the site before it is durable. The others
// are appended and folded like any record but hold nothing back, in the
// presumed-abort manner of Mohan, Lindsay and Obermarck: a restart that lacks
// one knows nothing of the transaction, so the site is in q, answers a poll
// with the never-voted promise, and the transaction aborts. That is safe
// because an abort decided in the vote phase is irrevocable: nobody is in PC,
// so no termination rule can commit. A terminator's abort rests on forced PA
// records, a site in q, nobody in PC (3PC) or an earlier abort, never on an
// ABORT record. wal.RecType.Forced is this table in code, and a test holds
// the two together.
//
//	record     forced  read at restart by                           must precede
//	BEGIN      yes     Recover at a pure coordinator: wait for the   its VOTE-REQs
//	                   outcome (a participating coordinator writes
//	                   none; its VOTED-YES carries the same fields)
//	VOTED-YES  yes     Recover: re-lock, resume in W, ask            the yes vote
//	VOTED-NO   no      nothing: the site is in q                     -
//	PC         yes     Recover: resume in PC, count toward Qc        the PC-ACK
//	PA         yes     Recover: resume in PA, count toward Qa        the PA-ACK
//	COMMIT     yes     Recover: committed; a live server reapplies   the outcome's publication
//	                   the writeset                                  and the client's notice
//	ABORT      no      nothing: an in-doubt site asks and aborts     -
//	LEASE      yes     live.Server: resume IDs past the block        VOTE-REQs of its block's IDs
//
// The engine appends synchronously, so there every record is durable on
// return and the only difference is the BEGIN a participating coordinator
// no longer writes; the live node gates an
// event's sends and outcome notifications on its forced records only.
package site

import (
	"slices"

	"qcommit/internal/core"
	"qcommit/internal/election"
	"qcommit/internal/lockmgr"
	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/sim"
	"qcommit/internal/storage"
	"qcommit/internal/threephase"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// numRoles sizes the per-role tables of a Txn.
const numRoles = int(protocol.RoleElection) + 1

// Event names a point on the commit path a host may want to observe (the
// live runtime maps them onto span stages and counters).
type Event uint8

// Events, in commit-path order.
const (
	// Begun: this site is about to start coordinating the transaction.
	Begun Event = iota
	// AbortedAtBegin: Begin found a local copy locked and aborts the
	// transaction before any VOTE-REQ leaves.
	AbortedAtBegin
	// VoteRequested: the first VOTE-REQ arrived; the participant is about to
	// be installed.
	VoteRequested
	// LocksTaken: the participant locked every local copy for its yes vote.
	LocksTaken
	// VoteReceived: a VOTE-RESP reached this site's coordinator (at = voter).
	VoteReceived
	// Deciding: the decision record is about to be forced to the log.
	Deciding
	// TermRound: a campaign consumed one termination round.
	TermRound
)

// Timer identifies an armed automaton timer; the host hands it back to Fire
// when it expires.
type Timer struct {
	Txn   types.TxnID
	Role  protocol.Role
	Gen   uint32
	Token int
}

// Stopper cancels an armed host timer (*time.Timer is one).
type Stopper interface{ Stop() bool }

// Host is what a Kernel needs from the runtime driving it: a clock and
// timers, a way to send, the site's log, and a listener for what happens to a
// transaction here (decisions, contradictions, commit-path events, traces,
// injected refusals). Nothing in it looks at another site. X is the host's
// per-transaction slot, carried in every Txn so the host needs no table of
// its own.
type Host[X any] interface {
	// Now is the current protocol time.
	Now() sim.Time
	// AfterFunc arranges for Kernel.Fire(t) to be called after d. The returned
	// Stopper, if any, is stopped once t can no longer fire; a host whose
	// stale expiries are free may return nil.
	AfterFunc(d sim.Duration, t Timer) Stopper
	// Send transmits m from this site.
	Send(to types.SiteID, m msg.Message)
	// Append writes rec to the site's log on c's behalf; whatever the host
	// sends after it must not overtake it to stable storage.
	Append(c *Txn[X], rec wal.Record)
	// Decided reports that c has just terminated here with outcome o.
	Decided(c *Txn[X], o types.Outcome)
	// Contradicted reports a COMMIT for a transaction this site aborted, or
	// an ABORT for one it committed: the protocol under test broke atomicity.
	// have is the outcome that stands.
	Contradicted(txn types.TxnID, have types.Outcome)
	// RefusesVote lets the host inject a no vote (a modeled fault).
	RefusesVote(txn types.TxnID) bool
	// Observe reports a commit-path event of c; at is the site it concerns.
	Observe(c *Txn[X], ev Event, at types.SiteID)
	// Tracef emits a trace annotation for this site.
	Tracef(format string, args ...any)
}

// Config is the fixed part of a site.
type Config struct {
	// Spec builds the automata of the protocol under test.
	Spec core.Spec
	// Assignment is the cluster-wide vote assignment.
	Assignment *voting.Assignment
	// T is the timeout base (longest end-to-end propagation delay).
	T sim.Duration
	// MaxTerminationRounds caps the election rounds a site initiates per
	// transaction before resigning to a block (default 3).
	MaxTerminationRounds int
	// Store and Locks are the site's versioned store and lock table.
	Store *storage.Store
	Locks *lockmgr.Manager
	// Tracker is the cluster's access-strategy tracker, told of every commit
	// applied and every copy installed here. Nil (a host whose sites share no
	// memory) runs the static quorum strategy.
	Tracker *voting.Tracker
}

// Txn is a site's bookkeeping for one transaction.
//
// WS and Participants are immutable once the context exists: the kernel,
// its automata, the log and the tracker only ever read them, so a context
// may share them with whoever handed them in. Handle adopts a VOTE-REQ's
// writeset and participant list by reference. That is sound on every
// fabric: the live transports decode a fresh copy per delivery, and simnet
// with its codec off, which hands every receiver the same slices, runs on
// one thread.
type Txn[X any] struct {
	ID           types.TxnID
	WS           types.Writeset
	Participants []types.SiteID
	Coord        types.SiteID
	// X is the host's slot.
	X X

	// q is the transaction's rule, shared by every coordinator and
	// terminator of it here: the first of them to start compiles it, and
	// later termination rounds reuse it.
	q quorumcalc.Quorums

	auto [numRoles]protocol.Automaton
	gen  [numRoles]uint32
	// envs[role] is the env of the automaton installed in role, made once
	// and reused by every dispatch to it; an entry whose generation is not
	// gen[role] is stale and never handed out again.
	envs [numRoles]*env[X]
	// timers are the stoppable host timers armed on this transaction's
	// behalf, fired ones included; fence stops them once the generations they
	// were armed under can no longer match.
	timers []Stopper

	elect     *election.FSM
	nextEpoch uint32
	rounds    int // termination rounds consumed
	// coordSuspected says this site suspects the coordinator of having
	// failed, for this transaction: set when the participant's patience
	// runs out or another site calls an election, cleared by the next frame
	// from the coordinator (deliver).
	coordSuspected bool

	outcome types.Outcome
}

// Automaton returns the automaton installed in role, if any.
func (c *Txn[X]) Automaton(role protocol.Role) protocol.Automaton { return c.auto[role] }

func (c *Txn[X]) terminal() bool {
	return c.outcome == types.OutcomeCommitted || c.outcome == types.OutcomeAborted
}

// drop uninstalls role's automaton and fences off whatever it armed.
func (c *Txn[X]) drop(role protocol.Role) {
	c.gen[role]++
	c.auto[role] = nil
	if role == protocol.RoleElection && c.elect != nil {
		c.elect.Stop()
		c.elect = nil
	}
}

// fence drops every role and stops the outstanding timers, which could only
// fire into that fence.
func (c *Txn[X]) fence() {
	for role := range c.auto {
		c.drop(protocol.Role(role))
	}
	for _, t := range c.timers {
		t.Stop()
	}
	c.timers = nil
}

// finisher is implemented by the coordinator-side automata (commit
// coordinator, termination coordinator): Finished reports that the automaton
// has done its part and ignores every further message and timer.
type finisher interface{ Finished() bool }

// Kernel is one site's transaction host. See the package comment for the
// threading contract.
type Kernel[X any] struct {
	id  types.SiteID
	cfg Config
	h   Host[X]

	// txns holds the transactions not yet let go: those in progress, plus the
	// terminated ones whose coordinator or terminator still has the decision
	// to distribute (see reap). done holds the outcome of every transaction
	// that has terminated here — all that late StateReq, OutcomeReq, Commit
	// and Abort traffic needs of it — and is never pruned.
	txns map[types.TxnID]*Txn[X]
	done map[types.TxnID]types.Outcome
	// promised marks the transactions this site has told a termination poll
	// it never voted on; it votes no on them from then on. Volatile: lost on
	// Crash, dropped when the transaction terminates here.
	promised map[types.TxnID]bool
}

// New builds the kernel of site id.
func New[X any](id types.SiteID, cfg Config, h Host[X]) *Kernel[X] {
	if cfg.MaxTerminationRounds <= 0 {
		cfg.MaxTerminationRounds = 3
	}
	return &Kernel[X]{
		id:       id,
		cfg:      cfg,
		h:        h,
		txns:     make(map[types.TxnID]*Txn[X]),
		done:     make(map[types.TxnID]types.Outcome),
		promised: make(map[types.TxnID]bool),
	}
}

// Txn returns txn's context while the site still holds one.
func (k *Kernel[X]) Txn(txn types.TxnID) *Txn[X] { return k.txns[txn] }

// Len returns the number of contexts the site holds.
func (k *Kernel[X]) Len() int { return len(k.txns) }

// Outcome returns txn's outcome at this site, once it has terminated here.
func (k *Kernel[X]) Outcome(txn types.TxnID) (types.Outcome, bool) {
	o, ok := k.done[txn]
	return o, ok
}

// Terminated lists the transactions that have terminated here, ascending.
func (k *Kernel[X]) Terminated() []types.TxnID {
	out := make([]types.TxnID, 0, len(k.done))
	for txn := range k.done {
		out = append(out, txn)
	}
	slices.Sort(out)
	return out
}

// Adopt returns txn's context, creating it from the given description if the
// site holds none. The caller has ruled out that txn already terminated here.
func (k *Kernel[X]) Adopt(txn types.TxnID, ws types.Writeset, participants []types.SiteID, coord types.SiteID) *Txn[X] {
	c := k.txns[txn]
	if c == nil {
		c = &Txn[X]{ID: txn}
		k.txns[txn] = c
	}
	if len(c.WS) == 0 {
		c.WS, c.Participants, c.Coord = ws, participants, coord
		c.q = quorumcalc.Quorums{}
	}
	return c
}

// quorums returns c's rule, uncompiled until an automaton starts on it.
func (k *Kernel[X]) quorums(c *Txn[X]) *quorumcalc.Quorums {
	if c.q.Frame() == nil {
		c.q.Rule = k.cfg.Spec.Rule(c.Participants)
	}
	return &c.q
}

// Begin starts coordinating txn at this site. ws and participants become the
// kernel's.
//
// A coordinator that is one of the participants first reads its own lock
// table: if a copy it holds of a written item is already locked, it aborts txn
// on the spot through Decide — one ABORT record, no frame, no timer, no
// coordinator — and the context goes. This is safe under all five
// protocols because nothing has left the site: no participant has voted or
// locked anything, so nobody can be in doubt or have to terminate txn, and the
// abort is the no vote this site's own participant would cast (any no vote
// aborts, Figs. 2 and 9). The check only reads the lock table, so a
// transaction that goes ahead locks exactly as before; a conflict that arises
// after Begin still meets the participant's own no vote.
func (k *Kernel[X]) Begin(txn types.TxnID, ws types.Writeset, participants []types.SiteID) *Txn[X] {
	c := k.Adopt(txn, ws, participants, k.id)
	k.h.Observe(c, Begun, k.id)
	for _, w := range ws { // the copies lockCopies would lock
		if k.cfg.Store.Has(w.Item) && k.cfg.Locks.Locked(w.Item) && slices.Contains(participants, k.id) {
			k.h.Tracef("%s: %s aborts at BEGIN, its copy of %s is locked", txn, k.id, w.Item)
			k.h.Observe(c, AbortedAtBegin, k.id)
			k.Decide(txn, types.OutcomeAborted)
			return c
		}
	}
	k.install(c, protocol.RoleCoordinator, threephase.NewCoordinator(txn, ws, participants, k.quorums(c)))
	return c
}

// Resume re-locks the local copies c's transaction held and installs a
// participant in the logged state im — the rejoin of an in-doubt transaction.
func (k *Kernel[X]) Resume(c *Txn[X], im *wal.TxnImage) {
	k.lockCopies(c.ID, c.WS)
	k.install(c, protocol.RoleParticipant, k.cfg.Spec.NewParticipant(c.ID, im))
}

// install places an automaton in a role slot, superseding (and silencing the
// timers of) any previous occupant, and starts it.
func (k *Kernel[X]) install(c *Txn[X], role protocol.Role, a protocol.Automaton) {
	a.Start(k.occupy(c, role, a))
}

// occupy places a in role under a fresh generation and returns its env. The
// env of the automaton it supersedes keeps the old generation, so whatever
// that automaton still asks for — even later in its own dispatch — is fenced.
func (k *Kernel[X]) occupy(c *Txn[X], role protocol.Role, a protocol.Automaton) *env[X] {
	c.gen[role]++
	c.auto[role] = a
	return k.env(c, role)
}

// Crash discards the volatile state: every automaton and election stops,
// every timer is fenced, never-voted promises and suspicions are forgotten.
// Contexts of unterminated transactions stay (empty) for Recover to refill;
// the log, store and lock table are the host's and survive.
func (k *Kernel[X]) Crash() {
	for txn, c := range k.txns {
		c.fence()
		c.coordSuspected = false
		if c.terminal() {
			delete(k.txns, txn)
		}
	}
	clear(k.promised)
}

// Recover rebuilds volatile state from the site's log: terminal outcomes are
// remembered, and every transaction the log leaves in doubt re-locks its
// copies and rejoins through a fresh participant, whose patience timer
// re-enters the termination protocol. A BEGIN-only image is a pure
// coordinator's (a coordinator that is a participant logs no BEGIN): it may
// hide a PREPARE-TO-COMMIT already sent, so it is kept, with nothing running,
// for the outcome to reach it.
//
// Every transaction left unresolved then asks the others at once: one
// OutcomeReq to each other participant, and to the coordinator if it is not
// one. A site where the transaction has terminated answers with the COMMIT or
// ABORT, which the rejoined participant (or, at a pure coordinator, Handle)
// applies, so a restart that can reach such a site agrees within one round
// trip. The query is not a campaign: it consumes no termination round, makes
// nobody promise or suspect anything, and an unanswered one leaves the
// participant's 3 T patience to start the election as before — so a site that
// restarts into a partition burns no round on it. And the answer is only
// ever an outcome that already stands at a site, which atomicity makes the
// outcome everywhere: it cannot decide anything the protocol has not.
func (k *Kernel[X]) Recover(recs []wal.Record) {
	images := wal.Replay(recs)
	txns := make([]types.TxnID, 0, len(images))
	for txn := range images {
		txns = append(txns, txn)
	}
	slices.Sort(txns)
	for _, txn := range txns {
		if _, ok := k.done[txn]; ok {
			continue
		}
		im := images[txn]
		if im.State.Terminal() {
			k.done[txn] = im.State.Outcome()
			continue
		}
		c := k.Adopt(txn, im.Writeset.Clone(), append([]types.SiteID(nil), im.Participants...), im.Coord)
		if im.State != types.StateInitial { // W, PC or PA: in doubt
			k.Resume(c, im)
		}
		k.askOutcome(c)
	}
}

// askOutcome sends an OutcomeReq about c to every other participant and to a
// coordinator that is not one of them.
func (k *Kernel[X]) askOutcome(c *Txn[X]) {
	q := msg.OutcomeReq{Txn: c.ID}
	for _, p := range c.Participants {
		if p != k.id {
			k.h.Send(p, q)
		}
	}
	if c.Coord != k.id && !slices.Contains(c.Participants, c.Coord) {
		k.h.Send(c.Coord, q)
	}
}

// lockCopies takes X locks on every local copy of items written by txn, in
// writeset order, each item once. It reports whether all locks were
// obtained; on failure it releases what it took, in the order it took it.
func (k *Kernel[X]) lockCopies(txn types.TxnID, ws types.Writeset) bool {
	for i, w := range ws {
		if !k.cfg.Store.Has(w.Item) || ws[:i].Contains(w.Item) {
			continue
		}
		if err := k.cfg.Locks.TryAcquire(txn, w.Item, lockmgr.Exclusive); err != nil {
			for j, u := range ws[:i] { // what this call took, in order
				if k.cfg.Store.Has(u.Item) && !ws[:j].Contains(u.Item) {
					k.cfg.Locks.Release(txn, u.Item)
				}
			}
			return false
		}
	}
	return true
}

// Handle routes a delivered message to the right automaton.
func (k *Kernel[X]) Handle(e msg.Envelope) {
	store, locks := k.cfg.Store, k.cfg.Locks
	txn := msg.TxnOf(e.Msg)
	switch m := e.Msg.(type) {
	case msg.CopyReq:
		// Anti-entropy service: serve our copy unless a pending transaction
		// holds it (its value may be about to change).
		if store.Has(m.Item) && !locks.Locked(m.Item) {
			if v, err := store.Read(m.Item); err == nil {
				k.h.Send(e.From, msg.CopyResp{Item: m.Item, Value: v.Value, Version: v.Version})
			}
		}

	case msg.CopyResp:
		// Install only newer versions; storage.Apply enforces monotonicity.
		// A copy that catches up to the newest committed version sheds its
		// missing write or rejoins its item's dynamic majority basis.
		if store.Has(m.Item) {
			_ = store.Apply(m.Item, m.Value, m.Version)
			k.cfg.Tracker.CopyInstalled(k.id, m.Item)
		}

	case msg.VoteReq:
		if _, over := k.done[txn]; over {
			return
		}
		c := k.txns[txn]
		if c == nil || len(c.WS) == 0 {
			c = k.Adopt(txn, m.Writeset, m.Participants, m.Coord) // immutable from here on: see Txn
		}
		if c.auto[protocol.RoleParticipant] == nil {
			k.h.Observe(c, VoteRequested, k.id)
			k.install(c, protocol.RoleParticipant, k.cfg.Spec.NewParticipant(txn, nil))
		}
		k.deliver(c, protocol.RoleParticipant, e)

	case msg.ElectionCall, msg.ElectionOK, msg.CoordAnnounce:
		if o, over := k.done[txn]; over {
			// The campaigner is behind: as with a poll below, the outcome is
			// the answer, and it spares the caller the wait for a better
			// candidate that has nothing left to run for.
			if _, call := m.(msg.ElectionCall); call {
				k.h.Send(e.From, command(txn, o))
			}
			return
		}
		c := k.txns[txn]
		if c == nil {
			return
		}
		if _, call := m.(msg.ElectionCall); call && c.Coord != k.id && c.Coord != e.From {
			// The caller's patience with the coordinator ran out: so, by now,
			// has this site's, or it is about to.
			c.coordSuspected = true
		}
		if c.elect == nil {
			// Joining an election started elsewhere (passive: does not
			// consume a termination round).
			epoch := uint32(0)
			if call, ok := m.(msg.ElectionCall); ok {
				epoch = uint32(call.Ballot >> 32)
			}
			k.startElection(c, epoch, false)
		}
		k.deliver(c, protocol.RoleElection, e)

	case msg.OutcomeReq:
		// A restarted site asks whether the transaction is over. Only an
		// outcome that stands here is an answer; otherwise this site keeps
		// quiet and records nothing — no promise, no suspicion, no context —
		// since the asker's patience still bounds its wait.
		if o, over := k.done[txn]; over {
			k.h.Send(e.From, command(txn, o))
		}

	case msg.StateReq:
		c := k.txns[txn]
		if c == nil || c.auto[protocol.RoleParticipant] == nil {
			// No participant here. If the transaction is over the outcome is
			// the answer. Otherwise this site never voted: it is in the
			// initial state q and must say so — an initial-state reply lets
			// the termination protocol abort immediately. Saying so is a
			// promise: the reply poisons any VOTE-REQ still in flight (we will
			// vote no), otherwise a late yes vote could let the commit
			// protocol commit a transaction the termination protocol aborted
			// on the strength of this reply.
			st := types.StateInitial
			if o, over := k.done[txn]; over {
				st = o.StateEquivalent()
			} else {
				k.promised[txn] = true
			}
			k.h.Send(e.From, msg.StateResp{Txn: txn, Epoch: m.Epoch, State: st})
			return
		}
		k.deliver(c, protocol.RoleParticipant, e)

	case msg.StateResp, msg.PCAck, msg.PAAck:
		c := k.txns[txn]
		if c == nil {
			return
		}
		if c.auto[protocol.RoleTerminator] != nil {
			k.deliver(c, protocol.RoleTerminator, e)
		} else {
			k.deliver(c, protocol.RoleCoordinator, e)
		}

	case msg.VoteResp:
		if c := k.txns[txn]; c != nil {
			k.h.Observe(c, VoteReceived, e.From)
			k.deliver(c, protocol.RoleCoordinator, e)
		}

	case msg.PrepareToCommit, msg.PrepareToAbort, msg.Commit, msg.Abort:
		if c := k.txns[txn]; c != nil && c.auto[protocol.RoleParticipant] != nil {
			k.deliver(c, protocol.RoleParticipant, e)
			return
		}
		// No participant (the pure coordinator site holds no copies, or the
		// transaction is already over here): apply terminal commands directly.
		switch m.(type) {
		case msg.Commit:
			k.Decide(txn, types.OutcomeCommitted)
		case msg.Abort:
			k.Decide(txn, types.OutcomeAborted)
		}
	}
}

// command is the terminal command that spreads the terminal outcome o.
func command(txn types.TxnID, o types.Outcome) msg.Message {
	if o == types.OutcomeCommitted {
		return msg.Commit{Txn: txn}
	}
	return msg.Abort{Txn: txn}
}

// deliver hands e to c's automaton in role. Any frame about the transaction
// from a suspected coordinator clears the suspicion first.
func (k *Kernel[X]) deliver(c *Txn[X], role protocol.Role, e msg.Envelope) {
	if c.coordSuspected && e.From == c.Coord {
		c.coordSuspected = false
		k.h.Tracef("%s: %s hears from suspect %s again", c.ID, k.id, e.From)
	}
	if a := c.auto[role]; a != nil {
		a.OnMessage(e.From, e.Msg, k.env(c, role))
		k.reap(c)
	}
}

// Fire delivers an expired timer, unless the automaton that armed it has
// been superseded or let go since.
func (k *Kernel[X]) Fire(t Timer) {
	c := k.txns[t.Txn]
	if c == nil || c.gen[t.Role] != t.Gen {
		return
	}
	if a := c.auto[t.Role]; a != nil {
		a.OnTimer(t.Token, k.env(c, t.Role))
		k.reap(c)
	}
}

// startElection creates an election FSM at the given epoch. With campaign
// set the site actively campaigns (consuming one termination round);
// otherwise it joins passively and only reacts to election messages.
func (k *Kernel[X]) startElection(c *Txn[X], epoch uint32, campaign bool) {
	if c.terminal() {
		return
	}
	if campaign {
		if c.rounds >= k.cfg.MaxTerminationRounds {
			return
		}
		c.rounds++
		k.h.Observe(c, TermRound, k.id)
	}
	if epoch < c.nextEpoch {
		epoch = c.nextEpoch
	}
	c.nextEpoch = epoch + 1
	// The election runs over all participants; unreachable ones simply never
	// answer. A site that knows of none can only elect itself.
	peers := c.Participants
	if len(peers) == 0 {
		peers = []types.SiteID{k.id}
	}
	f := election.New(c.ID, k.id, peers, epoch)
	f.OnElected = func(won uint32) {
		if !c.terminal() {
			k.install(c, protocol.RoleTerminator, threephase.NewTerminator(c.ID, c.WS, c.Participants, won, k.quorums(c)))
		}
	}
	f.OnRetry = func() {
		c.elect = nil
		k.startElection(c, c.nextEpoch, true)
	}
	c.elect = f
	e := k.occupy(c, protocol.RoleElection, f)
	if campaign {
		f.Start(e)
	}
}

// ResetTermination gives txn a fresh termination-round budget and abandons
// any election in progress. It reports whether a participant here is still
// in doubt, i.e. whether a Campaign would have anything to terminate.
func (k *Kernel[X]) ResetTermination(txn types.TxnID) bool {
	c := k.txns[txn]
	if c == nil || c.terminal() || c.auto[protocol.RoleParticipant] == nil {
		return false
	}
	c.rounds = 0
	if c.elect != nil {
		c.drop(protocol.RoleElection)
	}
	return true
}

// Campaign starts an election round for txn at this site, budget permitting.
func (k *Kernel[X]) Campaign(txn types.TxnID) {
	if c := k.txns[txn]; c != nil {
		k.startElection(c, c.nextEpoch, true)
	}
}

// Decide applies the terminal command o for txn: the irrevocable local
// commit or abort, or — if txn already terminated here the other way — a
// contradiction reported to the host.
func (k *Kernel[X]) Decide(txn types.TxnID, o types.Outcome) {
	if have, over := k.done[txn]; over {
		if have != o {
			k.h.Contradicted(txn, have)
		}
		return
	}
	c := k.txns[txn]
	if c == nil {
		return
	}
	// Force the decision to the log; a commit then applies the writeset at
	// version txn+1. Either way the locks go and the outcome is recorded.
	k.h.Observe(c, Deciding, k.id)
	if o == types.OutcomeCommitted {
		k.h.Append(c, wal.Record{Type: wal.RecCommit, Txn: txn})
		k.cfg.Store.ApplyWriteset(c.WS, uint64(txn)+1)
		k.cfg.Tracker.CommitApplied(k.id, txn, c.WS)
	} else {
		k.h.Append(c, wal.Record{Type: wal.RecAbort, Txn: txn})
	}
	k.cfg.Locks.ReleaseAll(txn)
	// The participant and the election have nothing left to do; the rest of
	// the context goes as soon as reap allows.
	c.outcome = o
	k.done[txn] = o
	delete(k.promised, txn)
	c.drop(protocol.RoleParticipant)
	c.drop(protocol.RoleElection)
	k.h.Decided(c, o)
	k.reap(c)
}

// reap lets go of a terminated transaction's context — automata, writeset,
// armed timers — once no coordinator-side automaton still has work: a
// coordinator whose own participant voted no has yet to read that vote and
// tell the others, and a terminator that learnt the outcome from a rival has
// yet to close its round. It runs after every automaton step, so in the
// common case, where the decision reaches this site after its coordinator
// sent it, the context goes with the decision.
func (k *Kernel[X]) reap(c *Txn[X]) {
	if !c.terminal() {
		return
	}
	for _, role := range [...]protocol.Role{protocol.RoleCoordinator, protocol.RoleTerminator} {
		if a := c.auto[role]; a != nil {
			if f, ok := a.(finisher); !ok || !f.Finished() {
				return
			}
		}
	}
	c.fence()
	delete(k.txns, c.ID)
}

// env returns the protocol.Env bound to (site, transaction, role) at the
// role's current generation: the one made when the role's automaton was
// installed, so a dispatch allocates nothing. A fresh env is never shared
// with an older generation's, whose automaton stays fenced.
func (k *Kernel[X]) env(c *Txn[X], role protocol.Role) *env[X] {
	if e := c.envs[role]; e != nil && e.gen == c.gen[role] {
		return e
	}
	e := &env[X]{k: k, c: c, role: role, gen: c.gen[role]}
	c.envs[role] = e
	return e
}

// env implements protocol.Env for one automaton instance.
type env[X any] struct {
	k    *Kernel[X]
	c    *Txn[X]
	role protocol.Role
	gen  uint32
}

func (e *env[X]) Self() types.SiteID             { return e.k.id }
func (e *env[X]) Now() sim.Time                  { return e.k.h.Now() }
func (e *env[X]) T() sim.Duration                { return e.k.cfg.T }
func (e *env[X]) Assignment() *voting.Assignment { return e.k.cfg.Assignment }

func (e *env[X]) Send(to types.SiteID, m msg.Message) { e.k.h.Send(to, m) }

func (e *env[X]) SetTimer(d sim.Duration, token int) {
	c := e.c
	if c.gen[e.role] != e.gen {
		return // superseded or let go during this very call: the expiry could only be dropped
	}
	t := Timer{Txn: c.ID, Role: e.role, Gen: e.gen, Token: token}
	if st := e.k.h.AfterFunc(d, t); st != nil {
		c.timers = append(c.timers, st)
	}
}

func (e *env[X]) Append(rec wal.Record) { e.k.h.Append(e.c, rec) }

func (e *env[X]) Commit(txn types.TxnID) { e.k.Decide(txn, types.OutcomeCommitted) }
func (e *env[X]) Abort(txn types.TxnID)  { e.k.Decide(txn, types.OutcomeAborted) }

func (e *env[X]) Block(txn types.TxnID) {
	if c := e.k.txns[txn]; c != nil && !c.terminal() {
		e.k.h.Tracef("%s BLOCKED (termination cannot form a quorum)", txn)
	}
}

func (e *env[X]) RequestTermination(txn types.TxnID) {
	c := e.k.txns[txn]
	if c == nil || c.terminal() {
		return
	}
	if e.role == protocol.RoleParticipant && c.Coord != e.k.id {
		// The participant's patience ran out: its coordinator is silent.
		c.coordSuspected = true
	}
	if c.elect != nil && !c.elect.Won() {
		return // an election is already in progress
	}
	e.k.startElection(c, c.nextEpoch, true)
}

func (e *env[X]) Suspected(s types.SiteID) bool { return s == e.c.Coord && e.c.coordSuspected }

// TerminatorDone needs no bookkeeping: reap asks the terminator itself.
func (e *env[X]) TerminatorDone(types.TxnID) {}

// AcquireLocks is the host service participants use while voting: X locks on
// all local copies in the writeset. A never-voted promise or an injected
// refusal makes it fail, which the participant turns into a no vote.
func (e *env[X]) AcquireLocks(txn types.TxnID) bool {
	k := e.k
	c := k.txns[txn]
	if c == nil || k.promised[txn] || k.h.RefusesVote(txn) {
		return false
	}
	if !k.lockCopies(txn, c.WS) {
		return false
	}
	k.h.Observe(c, LocksTaken, k.id)
	return true
}

func (e *env[X]) Tracef(format string, args ...any) { e.k.h.Tracef(format, args...) }
