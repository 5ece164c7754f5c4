// Package engine hosts protocol automata on the deterministic simulator.
//
// A Cluster owns one Site per database site. Each Site carries the durable
// substrate (write-ahead log, versioned store, lock manager) and the volatile
// automata (commit coordinator, participant, election FSM, termination
// coordinator) for each transaction. Crashing a site discards its volatile
// automata and silences its timers while preserving the WAL; recovery
// replays the WAL and rejoins the termination protocol, exactly the failure
// model of the paper.
package engine

import (
	"fmt"
	"sort"

	"qcommit/internal/election"
	"qcommit/internal/lockmgr"
	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/sim"
	"qcommit/internal/storage"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// txnCtx is a site's bookkeeping for one transaction.
type txnCtx struct {
	txn          types.TxnID
	ws           types.Writeset
	participants []types.SiteID
	coordSite    types.SiteID

	auto map[protocol.Role]protocol.Automaton
	gen  map[protocol.Role]uint32

	elect     *election.FSM
	nextEpoch uint32
	rounds    int // termination/election rounds consumed

	outcome   types.Outcome
	decidedAt sim.Time
	blocked   bool
}

func (c *txnCtx) terminal() bool {
	return c.outcome == types.OutcomeCommitted || c.outcome == types.OutcomeAborted
}

// Site is one database site: durable state plus per-transaction automata.
type Site struct {
	id    types.SiteID
	cl    *Cluster
	log   wal.Log
	store *storage.Store
	locks *lockmgr.Manager
	txns  map[types.TxnID]*txnCtx
	// voteNo holds injected refusals for specific transactions (a modeled
	// persistent fault, like refuser); promisedNo holds the volatile
	// never-voted promises made by poll replies, lost on crash.
	voteNo     map[types.TxnID]bool
	promisedNo map[types.TxnID]bool
	refuser    bool // injected refusal for all transactions
}

func newSite(id types.SiteID, cl *Cluster, log wal.Log) *Site {
	if log == nil {
		log = wal.NewMemLog()
	}
	return &Site{
		id:    id,
		cl:    cl,
		log:   log,
		store: storage.NewStore(id),
		// One shard: the engine is single-threaded, so sharding would only
		// multiply the per-shard maps a short-lived site allocates and the
		// mutexes every ReleaseAll visits.
		locks: lockmgr.NewSharded(id, 1),
		txns:  make(map[types.TxnID]*txnCtx),
	}
}

// ID returns the site's identifier.
func (s *Site) ID() types.SiteID { return s.id }

// Store exposes the site's versioned store (read-only use expected).
func (s *Site) Store() *storage.Store { return s.store }

// Locks exposes the site's lock manager (read-only use expected).
func (s *Site) Locks() *lockmgr.Manager { return s.locks }

// Log exposes the site's write-ahead log.
func (s *Site) Log() wal.Log { return s.log }

// RefuseVotes makes the site vote no on all future transactions (models an
// I/O subsystem failure, the paper's example reason for a no vote).
func (s *Site) RefuseVotes(refuse bool) { s.refuser = refuse }

// RefuseVote makes the site vote no on one transaction (an injected fault;
// like RefuseVotes it persists across crashes).
func (s *Site) RefuseVote(txn types.TxnID) {
	if s.voteNo == nil {
		s.voteNo = make(map[types.TxnID]bool)
	}
	s.voteNo[txn] = true
}

// promiseNoVote records the volatile promise a never-voted poll reply
// makes: any VOTE-REQ for txn arriving later is answered no. Unlike the
// injected refusals it is lost on crash, as volatile state must be.
func (s *Site) promiseNoVote(txn types.TxnID) {
	if s.promisedNo == nil {
		s.promisedNo = make(map[types.TxnID]bool)
	}
	s.promisedNo[txn] = true
}

func (s *Site) ctx(txn types.TxnID) *txnCtx {
	return s.txns[txn]
}

func (s *Site) ensureCtx(txn types.TxnID) *txnCtx {
	c := s.txns[txn]
	if c == nil {
		c = &txnCtx{
			txn:  txn,
			auto: make(map[protocol.Role]protocol.Automaton),
			gen:  make(map[protocol.Role]uint32),
		}
		s.txns[txn] = c
	}
	return c
}

// install places an automaton in a role slot, superseding (and silencing the
// timers of) any previous occupant, and starts it.
func (s *Site) install(c *txnCtx, role protocol.Role, a protocol.Automaton) {
	c.gen[role]++
	c.auto[role] = a
	a.Start(s.env(c.txn, role))
}

// env builds the protocol.Env bound to (site, txn, role) at the current
// generation; timers from superseded automata are dropped via the generation
// check.
func (s *Site) env(txn types.TxnID, role protocol.Role) *autoEnv {
	c := s.ensureCtx(txn)
	return &autoEnv{site: s, txn: txn, role: role, gen: c.gen[role]}
}

// crash discards volatile state: all automata and elections stop, timers are
// silenced via generation bumps. The WAL, store and lock table survive.
// Never-voted promises made by poll replies (see the StateReq/DecisionReq
// fallbacks in handle) are volatile too and are lost with the rest — a
// restarted site could in principle vote yes on a VOTE-REQ it promised to
// refuse. In-model the window is unreachable (termination polls start ≥3T
// after the vote phase, message delays are ≤T, and nothing redelivers a
// dropped VOTE-REQ after a restart), and the churn study's safety tallies
// would surface it if that ever changed. Injected refusals (RefuseVotes,
// RefuseVote) model a persistent I/O-subsystem fault and survive.
func (s *Site) crash() {
	for _, c := range s.txns {
		for role := range c.auto {
			c.gen[role]++
			delete(c.auto, role)
		}
		if c.elect != nil {
			c.elect.Stop()
			c.elect = nil
		}
	}
	s.promisedNo = nil
}

// recover replays the WAL and reconstructs participants for unterminated
// transactions; their patience timers re-enter the termination protocol.
func (s *Site) recoverVolatile() {
	recs, _ := s.log.Records()
	images := wal.Replay(recs)
	txns := make([]types.TxnID, 0, len(images))
	for txn := range images {
		txns = append(txns, txn)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
	for _, txn := range txns {
		im := images[txn]
		c := s.ensureCtx(txn)
		if len(c.ws) == 0 {
			c.ws = im.Writeset.Clone()
		}
		if len(c.participants) == 0 {
			c.participants = append([]types.SiteID(nil), im.Participants...)
		}
		c.coordSite = im.Coord
		switch im.State {
		case types.StateCommitted:
			c.outcome = types.OutcomeCommitted
		case types.StateAborted:
			c.outcome = types.OutcomeAborted
		case types.StateWait, types.StatePC, types.StatePA:
			// Re-acquire write locks on local copies (they were held before
			// the crash) and rejoin via a fresh participant automaton.
			s.lockLocalCopies(txn, c.ws)
			s.install(c, protocol.RoleParticipant, s.cl.cfg.Spec.NewParticipant(txn, im))
		}
	}
}

// syncCopies runs anti-entropy: ask every peer replica for its current copy
// of each locally-held item, installing newer versions as responses arrive.
// Called on restart so a site that was down across commits catches up even
// for transactions it never voted on.
func (s *Site) syncCopies() {
	for _, item := range s.store.Items() {
		if !s.cl.writtenItems[item] {
			continue // no commit ever wrote it: every copy is still initial
		}
		ic, ok := s.cl.cfg.Assignment.Item(item)
		if !ok {
			continue
		}
		for _, cp := range ic.Copies {
			if cp.Site != s.id {
				s.cl.send(s.id, cp.Site, msg.CopyReq{Item: item})
			}
		}
	}
}

// lockLocalCopies takes X locks on every local copy of items written by txn.
// It reports whether all locks were obtained; on failure it releases what it
// took.
func (s *Site) lockLocalCopies(txn types.TxnID, ws types.Writeset) bool {
	var taken []types.ItemID
	for _, x := range ws.Items() {
		if !s.store.Has(x) {
			continue
		}
		if err := s.locks.TryAcquire(txn, x, lockmgr.Exclusive); err != nil {
			for _, y := range taken {
				s.locks.Release(txn, y)
			}
			return false
		}
		taken = append(taken, x)
	}
	return true
}

// handle routes a delivered message to the right automaton.
func (s *Site) handle(e msg.Envelope) {
	if s.cl.net.Down(s.id) {
		return
	}
	txn := msg.TxnOf(e.Msg)
	s.cl.rec.Message(s.cl.sched.Now(), e.From, s.id, e.Msg.Kind().String())

	switch m := e.Msg.(type) {
	case msg.CopyReq:
		// Anti-entropy service: serve our copy unless a pending transaction
		// holds it (its value may be about to change).
		if s.store.Has(m.Item) && !s.locks.Locked(m.Item) {
			if v, err := s.store.Read(m.Item); err == nil {
				s.cl.send(s.id, e.From, msg.CopyResp{Item: m.Item, Value: v.Value, Version: v.Version})
			}
		}

	case msg.CopyResp:
		// Install only newer versions; storage.Apply enforces monotonicity.
		// A copy that catches up to the newest committed version sheds its
		// missing write or rejoins its item's dynamic majority basis
		// (no-ops under StrategyQuorum).
		if s.store.Has(m.Item) {
			_ = s.store.Apply(m.Item, m.Value, m.Version)
			s.cl.maybeResolve(m.Item, s.id)
			s.cl.maybeRejoin(m.Item, s.id)
		}

	case msg.VoteReq:
		c := s.ensureCtx(txn)
		if c.terminal() {
			return
		}
		if len(c.ws) == 0 {
			c.ws = m.Writeset.Clone()
			c.participants = append([]types.SiteID(nil), m.Participants...)
			c.coordSite = m.Coord
		}
		if c.auto[protocol.RoleParticipant] == nil {
			s.install(c, protocol.RoleParticipant, s.cl.cfg.Spec.NewParticipant(txn, nil))
		}
		s.deliver(c, protocol.RoleParticipant, e)

	case msg.ElectionCall, msg.ElectionOK, msg.CoordAnnounce:
		c := s.ctx(txn)
		if c == nil || c.terminal() {
			return
		}
		if c.elect == nil {
			// Joining an election started elsewhere (passive: does not
			// consume a termination round).
			epoch := uint32(0)
			if call, ok := m.(msg.ElectionCall); ok {
				epoch = uint32(call.Ballot >> 32)
			}
			s.startElection(c, epoch, false)
		}
		s.deliver(c, protocol.RoleElection, e)

	case msg.StateReq:
		c := s.ctx(txn)
		if c == nil || c.auto[protocol.RoleParticipant] == nil {
			// This site never heard of the transaction: it is in the initial
			// state q, and must say so — an initial-state reply lets the
			// termination protocol abort immediately. Saying so is a promise:
			// the reply poisons any VOTE-REQ still in flight (we will vote
			// no), otherwise a late yes vote could let the commit protocol
			// commit a transaction the termination protocol aborted on the
			// strength of this reply.
			st := types.StateInitial
			if c != nil && c.terminal() {
				st = c.outcome.StateEquivalent()
			} else {
				s.promiseNoVote(txn)
			}
			s.cl.send(s.id, e.From, msg.StateResp{Txn: txn, Epoch: m.Epoch, State: st})
			return
		}
		s.deliver(c, protocol.RoleParticipant, e)

	case msg.DecisionReq:
		c := s.ctx(txn)
		if c == nil || c.auto[protocol.RoleParticipant] == nil {
			// Unknown transaction: we have not voted, so the coordinator
			// cannot have committed — report "uncommitted". As with the
			// initial-state reply above, the report doubles as a refusal to
			// vote yes later.
			resp := msg.DecisionResp{Txn: txn, Uncommitted: true}
			if c != nil && c.terminal() {
				resp.Uncommitted = false
				if c.outcome == types.OutcomeCommitted {
					resp.Decision = types.DecisionCommit
				} else {
					resp.Decision = types.DecisionAbort
				}
			} else {
				s.promiseNoVote(txn)
			}
			s.cl.send(s.id, e.From, resp)
			return
		}
		s.deliver(c, protocol.RoleParticipant, e)

	case msg.StateResp, msg.PCAck, msg.PAAck, msg.DecisionResp:
		c := s.ctx(txn)
		if c == nil {
			return
		}
		if c.auto[protocol.RoleTerminator] != nil {
			s.deliver(c, protocol.RoleTerminator, e)
		} else if c.auto[protocol.RoleCoordinator] != nil {
			s.deliver(c, protocol.RoleCoordinator, e)
		}

	case msg.VoteResp, msg.Done:
		c := s.ctx(txn)
		if c == nil {
			return
		}
		s.deliver(c, protocol.RoleCoordinator, e)

	case msg.PrepareToCommit, msg.PrepareToAbort, msg.Commit, msg.Abort:
		c := s.ctx(txn)
		if c == nil {
			return
		}
		if c.auto[protocol.RoleParticipant] != nil {
			s.deliver(c, protocol.RoleParticipant, e)
			return
		}
		// No participant automaton (e.g. the pure coordinator site holds no
		// copies): apply terminal commands directly.
		switch e.Msg.(type) {
		case msg.Commit:
			s.doCommit(c)
		case msg.Abort:
			s.doAbort(c)
		}
	}
}

func (s *Site) deliver(c *txnCtx, role protocol.Role, e msg.Envelope) {
	a := c.auto[role]
	if a == nil {
		return
	}
	a.OnMessage(e.From, e.Msg, s.env(c.txn, role))
}

// startElection creates an election FSM at the given epoch. With campaign
// set the site actively campaigns (consuming one termination round);
// otherwise it joins passively and only reacts to election messages.
func (s *Site) startElection(c *txnCtx, epoch uint32, campaign bool) {
	if c.terminal() {
		return
	}
	if campaign {
		if c.rounds >= s.cl.cfg.MaxTerminationRounds {
			c.blocked = true
			return
		}
		c.rounds++
	}
	if epoch < c.nextEpoch {
		epoch = c.nextEpoch
	}
	c.nextEpoch = epoch + 1
	f := election.New(c.txn, s.id, s.alivePeers(c), epoch)
	f.OnElected = func(ep uint32) { s.startTerminator(c, ep) }
	f.OnRetry = func() {
		c.elect = nil
		s.startElection(c, c.nextEpoch, true)
	}
	c.elect = f
	c.gen[protocol.RoleElection]++
	c.auto[protocol.RoleElection] = f
	if campaign {
		f.Start(s.env(c.txn, protocol.RoleElection))
	}
}

// alivePeers returns the transaction's participant list (the election runs
// over all participants; unreachable ones simply never answer).
func (s *Site) alivePeers(c *txnCtx) []types.SiteID {
	if len(c.participants) > 0 {
		return c.participants
	}
	return s.cl.siteIDs
}

func (s *Site) startTerminator(c *txnCtx, epoch uint32) {
	if c.terminal() {
		return
	}
	term := s.cl.cfg.Spec.NewTerminator(c.txn, c.ws, c.participants, epoch)
	s.install(c, protocol.RoleTerminator, term)
}

// doCommit performs the irrevocable local commit: force COMMIT to the log,
// apply the writeset at version txn+1, release locks, record the outcome.
func (s *Site) doCommit(c *txnCtx) {
	if c.terminal() {
		if c.outcome == types.OutcomeAborted {
			s.cl.violationf("site %s: COMMIT after local ABORT of %s", s.id, c.txn)
		}
		return
	}
	_ = s.log.Append(wal.Record{Type: wal.RecCommit, Txn: c.txn})
	s.store.ApplyWriteset(c.ws, uint64(c.txn)+1)
	s.cl.noteWritten(c.ws)
	s.cl.noteCommitApplied(s, c)
	s.locks.ReleaseAll(c.txn)
	c.outcome = types.OutcomeCommitted
	c.blocked = false
	c.decidedAt = s.cl.sched.Now()
	s.quiesce(c)
	s.cl.rec.Annotate(s.cl.sched.Now(), s.id, "%s COMMITTED", c.txn)
}

// doAbort is the abort counterpart of doCommit.
func (s *Site) doAbort(c *txnCtx) {
	if c.terminal() {
		if c.outcome == types.OutcomeCommitted {
			s.cl.violationf("site %s: ABORT after local COMMIT of %s", s.id, c.txn)
		}
		return
	}
	_ = s.log.Append(wal.Record{Type: wal.RecAbort, Txn: c.txn})
	s.locks.ReleaseAll(c.txn)
	c.outcome = types.OutcomeAborted
	c.blocked = false
	c.decidedAt = s.cl.sched.Now()
	s.quiesce(c)
	s.cl.rec.Annotate(s.cl.sched.Now(), s.id, "%s ABORTED", c.txn)
}

// quiesce silences every automaton of a terminated transaction except the
// coordinator/terminator (which may still be distributing the decision).
func (s *Site) quiesce(c *txnCtx) {
	if c.elect != nil {
		c.elect.Stop()
		c.elect = nil
	}
	c.gen[protocol.RoleParticipant]++
	delete(c.auto, protocol.RoleParticipant)
	c.gen[protocol.RoleElection]++
	delete(c.auto, protocol.RoleElection)
}

// autoEnv implements protocol.Env bound to one automaton instance.
type autoEnv struct {
	site *Site
	txn  types.TxnID
	role protocol.Role
	gen  uint32
}

var _ protocol.Env = (*autoEnv)(nil)

func (e *autoEnv) Self() types.SiteID             { return e.site.id }
func (e *autoEnv) Now() sim.Time                  { return e.site.cl.sched.Now() }
func (e *autoEnv) T() sim.Duration                { return e.site.cl.cfg.T }
func (e *autoEnv) Assignment() *voting.Assignment { return e.site.cl.cfg.Assignment }

func (e *autoEnv) Send(to types.SiteID, m msg.Message) {
	e.site.cl.send(e.site.id, to, m)
}

func (e *autoEnv) SetTimer(d sim.Duration, token int) {
	s := e.site
	cl := s.cl
	txn, role, gen := e.txn, e.role, e.gen
	cl.sched.After(d, func() {
		if cl.net.Down(s.id) {
			return
		}
		c := s.ctx(txn)
		if c == nil || c.gen[role] != gen {
			return // automaton superseded or transaction terminated
		}
		a := c.auto[role]
		if a == nil {
			return
		}
		a.OnTimer(token, e)
	})
}

func (e *autoEnv) Append(rec wal.Record) {
	if err := e.site.log.Append(rec); err != nil {
		panic(fmt.Sprintf("engine: wal append at %s: %v", e.site.id, err))
	}
}

func (e *autoEnv) Commit(txn types.TxnID) {
	if c := e.site.ctx(txn); c != nil {
		e.site.doCommit(c)
	}
}

func (e *autoEnv) Abort(txn types.TxnID) {
	if c := e.site.ctx(txn); c != nil {
		e.site.doAbort(c)
	}
}

func (e *autoEnv) Block(txn types.TxnID) {
	if c := e.site.ctx(txn); c != nil && !c.terminal() {
		c.blocked = true
		e.site.cl.rec.Annotate(e.Now(), e.site.id, "%s BLOCKED (termination cannot form a quorum)", txn)
	}
}

func (e *autoEnv) RequestTermination(txn types.TxnID) {
	s := e.site
	c := s.ctx(txn)
	if c == nil || c.terminal() {
		return
	}
	if c.elect != nil && !c.elect.Won() {
		return // an election is already in progress
	}
	s.startElection(c, c.nextEpoch, true)
}

func (e *autoEnv) TerminatorDone(txn types.TxnID) {
	// Bookkeeping hook; the terminator slot stays installed so late acks are
	// still consumed harmlessly.
}

func (e *autoEnv) Tracef(format string, args ...any) {
	e.site.cl.rec.Annotate(e.Now(), e.site.id, format, args...)
}

// AcquireLocks is the host service participants use while voting: X locks on
// all local copies in the writeset. Injected refusals make it fail, which
// the participant turns into a no vote.
func (e *autoEnv) AcquireLocks(txn types.TxnID) bool {
	s := e.site
	if s.refuser || s.voteNo[txn] || s.promisedNo[txn] {
		return false
	}
	c := s.ctx(txn)
	if c == nil {
		return false
	}
	return s.lockLocalCopies(txn, c.ws)
}
