// Package engine hosts protocol automata on the deterministic simulator.
//
// A Cluster owns one Site per database site. Each Site carries the durable
// substrate (write-ahead log, versioned store, lock manager) and drives the
// shared transaction kernel (package site) from the simulation scheduler and
// the simulated network: messages arrive as scheduler events, timers are
// scheduler events, and time is virtual. Crashing a site discards the
// kernel's volatile state and silences its timers while preserving the WAL;
// recovery replays the WAL and rejoins the termination protocol, exactly the
// failure model of the paper.
package engine

import (
	"fmt"

	"qcommit/internal/lockmgr"
	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/sim"
	"qcommit/internal/site"
	"qcommit/internal/storage"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// txnCtx is the kernel's per-transaction context; the engine keeps nothing
// of its own in it.
type txnCtx = site.Txn[struct{}]

// Site is one database site: durable state plus the transaction kernel.
type Site struct {
	id    types.SiteID
	cl    *Cluster
	log   wal.Log
	store *storage.Store
	locks *lockmgr.Manager
	k     *site.Kernel[struct{}]
	// view folds every record appended to log (see append): StateOf's
	// answer for a transaction the kernel no longer holds.
	view wal.View

	// voteNo and refuser are injected refusals (a modeled persistent fault:
	// unlike the kernel's never-voted promises they survive crashes).
	voteNo  map[types.TxnID]bool
	refuser bool

	// decidedAt is when each transaction terminated here, and coords the
	// commit coordinators started here: what FirstDecisionAt and
	// AcksAtDecision report after the kernel has let the contexts go.
	decidedAt map[types.TxnID]sim.Time
	coords    map[types.TxnID]protocol.Automaton
}

func newSite(id types.SiteID, cl *Cluster, log wal.Log) *Site {
	if log == nil {
		log = wal.NewMemLog()
	}
	s := &Site{
		id:        id,
		cl:        cl,
		log:       log,
		store:     storage.NewStore(id),
		locks:     lockmgr.New(id),
		decidedAt: make(map[types.TxnID]sim.Time),
		coords:    make(map[types.TxnID]protocol.Automaton),
	}
	s.k = site.New(id, site.Config{
		Spec:                 cl.cfg.Spec,
		Assignment:           cl.cfg.Assignment,
		T:                    cl.cfg.T,
		MaxTerminationRounds: cl.cfg.MaxTerminationRounds,
		Store:                s.store,
		Locks:                s.locks,
		Tracker:              cl.tracker,
	}, (*siteHost)(s))
	return s
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

// handle is the site's network delivery callback.
func (s *Site) handle(e msg.Envelope) {
	if s.cl.net.Down(s.id) {
		return
	}
	if s.cl.rec.Enabled() {
		s.cl.rec.Message(s.cl.sched.Now(), e.From, s.id, e.Msg.Kind().String())
	}
	s.k.Handle(e)
}

// append forces rec to the site's log and folds it into the view. Every
// record the log receives after the cluster is built comes through here.
func (s *Site) append(rec wal.Record) {
	if err := s.log.Append(rec); err != nil {
		panic(fmt.Sprintf("engine: wal append at %s: %v", s.id, err))
	}
	s.view.Apply(rec)
}

// siteHost is a Site seen as the kernel's host: virtual time and timers from
// the scheduler, sends through the simulated network, the trace recorder.
type siteHost Site

var _ site.Host[struct{}] = (*siteHost)(nil)

func (s *siteHost) Now() sim.Time { return s.cl.sched.Now() }

// AfterFunc schedules the expiry and returns no Stopper: a fenced timer costs
// one no-op event, and cancelling it would move the time a run quiesces at.
// The event's body is a pooled expiry, so arming a timer allocates nothing
// once the pool covers the peak number armed.
func (s *siteHost) AfterFunc(d sim.Duration, t site.Timer) site.Stopper {
	cl := s.cl
	var e *expiry
	if n := len(cl.expiries); n > 0 {
		e = cl.expiries[n-1]
		cl.expiries = cl.expiries[:n-1]
	} else {
		e = new(expiry)
	}
	e.s, e.t = (*Site)(s), t
	cl.sched.Schedule(cl.sched.Now().Add(d), e)
	return nil
}

// expiry is an armed kernel timer, the body of its scheduler event.
type expiry struct {
	s *Site
	t site.Timer
}

// Run fires the timer, first returning e to the cluster's pool: Fire may
// arm timers, and they may reuse e.
func (e *expiry) Run() {
	s, t := e.s, e.t
	e.s = nil
	s.cl.expiries = append(s.cl.expiries, e)
	s.k.Fire(t)
}

func (s *siteHost) Send(to types.SiteID, m msg.Message) { s.cl.send(s.id, to, m) }

func (s *siteHost) Append(_ *txnCtx, rec wal.Record) { (*Site)(s).append(rec) }

func (s *siteHost) Decided(c *txnCtx, o types.Outcome) {
	now := s.cl.sched.Now()
	s.decidedAt[c.ID] = now
	if !s.cl.rec.Enabled() {
		return
	}
	if o == types.OutcomeCommitted {
		s.cl.rec.Annotate(now, s.id, "%s COMMITTED", c.ID)
	} else {
		s.cl.rec.Annotate(now, s.id, "%s ABORTED", c.ID)
	}
}

func (s *siteHost) Contradicted(txn types.TxnID, have types.Outcome) {
	if have == types.OutcomeAborted {
		s.cl.violationf("site %s: COMMIT after local ABORT of %s", s.id, txn)
	} else {
		s.cl.violationf("site %s: ABORT after local COMMIT of %s", s.id, txn)
	}
}

func (s *siteHost) RefusesVote(txn types.TxnID) bool { return s.refuser || s.voteNo[txn] }

func (s *siteHost) Observe(*txnCtx, site.Event, types.SiteID) {}

func (s *siteHost) Tracef(format string, args ...any) {
	if s.cl.rec.Enabled() {
		s.cl.rec.Annotate(s.cl.sched.Now(), s.id, format, args...)
	}
}
