package live

import (
	"sync"
	"time"

	"qcommit/internal/election"
	"qcommit/internal/lockmgr"
	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/protocol"
	"qcommit/internal/sim"
	"qcommit/internal/storage"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// numRoles sizes the per-role tables of a txnCtx.
const numRoles = int(protocol.RoleElection) + 1

// txnCtx mirrors the engine's per-transaction bookkeeping. The dispatch
// logic here deliberately parallels internal/engine/site.go: the engine
// validates behaviour deterministically, this runtime executes the same
// decisions concurrently. A context lives in Node.txns only until the
// transaction has terminated here and its coordinator-side automata have
// finished (see reap).
type txnCtx struct {
	txn          types.TxnID
	ws           types.Writeset
	participants []types.SiteID
	coordSite    types.SiteID

	auto [numRoles]protocol.Automaton
	gen  [numRoles]uint32

	// timers are the host timers armed on this transaction's behalf, fired
	// ones included; fence stops them once the generations they were armed
	// under can no longer match.
	timers []*time.Timer

	// sampled caches whether this transaction carries a recording span, so
	// unsampled transactions never touch the span recorder's mutex after the
	// one Start/Sampled probe. beganNS is the coordinator's begin timestamp
	// backing the commit-latency histogram (0 when metrics are off or this
	// site is not the coordinator).
	sampled bool
	beganNS int64

	elect     *election.FSM
	nextEpoch uint32
	rounds    int

	outcome types.Outcome
}

func (c *txnCtx) terminal() bool {
	return c.outcome == types.OutcomeCommitted || c.outcome == types.OutcomeAborted
}

// drop uninstalls role's automaton and fences off whatever it armed.
func (c *txnCtx) drop(role protocol.Role) {
	c.gen[role]++
	c.auto[role] = nil
	if role == protocol.RoleElection && c.elect != nil {
		c.elect.Stop()
		c.elect = nil
	}
}

// fence drops every role and stops the outstanding timers, which could only
// fire into that fence.
func (c *txnCtx) fence() {
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

// Node is one live database site: a goroutine owning the site's durable
// state and automata. All automaton access happens on the node goroutine.
type Node struct {
	id types.SiteID
	h  host

	// The mailbox is an unbounded slice guarded by mboxMu/mboxCond rather
	// than a buffered channel: a channel's buffer puts a hard cap on
	// outstanding deliveries, and once it filled, post blocked its caller —
	// under heavy submit/churn load two nodes posting into each other's
	// full mailboxes from their own loops deadlocked the whole cluster.
	// After the loop exits (stop), posts are shed instead of blocking or
	// panicking, so message/timer callbacks racing Cluster.Stop are safe.
	mboxMu   sync.Mutex
	mboxCond *sync.Cond
	mbox     []event
	stopped  bool

	walMu sync.Mutex
	log   wal.Log
	alog  wal.AsyncLog // non-nil when log supports async group commit

	// Event-scoped pipelining state, owned by the node goroutine. When the
	// log is an AsyncLog, an event's WAL appends return a ticket instead of
	// blocking on the fsync; the sends and outcome notifications that the
	// protocol gates on durability are buffered here and handed to the
	// flusher goroutine at the end of the event. The event loop moves on to
	// the next transaction's event while the batch is being forced — that is
	// what lets independent transactions overlap their protocol rounds on
	// one site.
	pendingTicket wal.Ticket
	havePending   bool
	defRecs       []wal.Record
	defSends      []sendOp
	defNotifies   []types.TxnID
	defMarks      []types.TxnID // sampled txns whose appends await their durable mark
	defFinishes   []spanFinish  // sampled decisions whose spans close once durable

	flushMu   sync.Mutex
	flushCond *sync.Cond
	flushQ    []flushJob
	flushStop bool

	// view is the per-transaction outcome fold of the node's DURABLE log
	// records, maintained incrementally: synchronous appends apply on
	// return, asynchronous ones when their batch's fsync lands. Outcome
	// reads (WaitOutcome aggregation, Violated, Server.Outcome) hit this
	// map instead of replaying the whole log — replaying is O(history)
	// per probe and was the dominant cost of a long benchmark run.
	viewMu sync.Mutex
	view   map[types.TxnID]types.Outcome

	store *storage.Store
	locks *lockmgr.Manager

	// met and spans are the optional observability hooks (both nil-safe and
	// nil when the host was built without an Observer).
	met   *nodeMetrics
	spans *obs.Spans

	// done holds the outcome of every transaction that has terminated here
	// — all that late StateReq, DecisionReq, Commit and Abort traffic needs
	// of it. txns holds the ones not yet let go: those in progress, plus the
	// terminated ones whose coordinator or terminator still has the decision
	// to distribute (see reap).
	//
	// done is not view: view folds the DURABLE log, so it learns an outcome
	// only when the fsync lands and is read by client goroutines under
	// viewMu; done is the event loop's own record, written at the decision
	// and touched by no other goroutine. A StateReq or DecisionReq that
	// arrives inside that fsync window must already see the decision, and
	// answering from view would cost every protocol message a mutex. Like
	// view, done is never pruned (one Outcome per terminated transaction).
	txns    map[types.TxnID]*txnCtx
	done    map[types.TxnID]types.Outcome
	crashed bool
}

// sendOp is one deferred transport send.
type sendOp struct {
	from, to types.SiteID
	m        msg.Message
}

// flushJob is one event's durability-gated output: released in FIFO order
// once the WAL batch covering ticket is forced.
type flushJob struct {
	ticket   wal.Ticket
	recs     []wal.Record
	sends    []sendOp
	notifies []types.TxnID
	marks    []types.TxnID
	finishes []spanFinish
}

func newNode(id types.SiteID, h host, log wal.Log, lockShards int, o *obs.Observer) *Node {
	if log == nil {
		log = wal.NewMemLog()
	}
	n := &Node{
		id:    id,
		h:     h,
		log:   log,
		store: storage.NewStore(id),
		locks: lockmgr.NewSharded(id, lockShards),
		txns:  make(map[types.TxnID]*txnCtx),
		done:  make(map[types.TxnID]types.Outcome),
		view:  make(map[types.TxnID]types.Outcome),
	}
	n.met = newNodeMetrics(o, id)
	n.spans = o.Spanner()
	n.locks.SetMetrics(lockmgr.NewMetrics(o.Reg(), id, n.locks.Shards()))
	if gl, ok := log.(*wal.GroupLog); ok {
		gl.RegisterMetrics(o.Reg(), id)
	}
	n.alog, _ = log.(wal.AsyncLog)
	if recs, err := log.Records(); err == nil && len(recs) > 0 {
		n.applyView(recs)
	}
	n.mboxCond = sync.NewCond(&n.mboxMu)
	n.flushCond = sync.NewCond(&n.flushMu)
	return n
}

// applyView folds durable records into the outcome view, with the same
// precedence Replay uses: terminal states are irrevocable.
func (n *Node) applyView(recs []wal.Record) {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	for _, rec := range recs {
		cur := n.view[rec.Txn]
		if cur == types.OutcomeCommitted || cur == types.OutcomeAborted {
			continue
		}
		switch rec.Type {
		case wal.RecCommit:
			n.view[rec.Txn] = types.OutcomeCommitted
		case wal.RecAbort, wal.RecVotedNo:
			n.view[rec.Txn] = types.OutcomeAborted
		case wal.RecVotedYes, wal.RecPC, wal.RecPA:
			n.view[rec.Txn] = types.OutcomeBlocked
		}
	}
}

// Store exposes the node's versioned store.
func (n *Node) Store() *storage.Store { return n.store }

// post enqueues an event for the node goroutine. It never blocks: the
// mailbox grows as needed, and events posted to a stopped node are shed.
func (n *Node) post(ev event) {
	n.mboxMu.Lock()
	defer n.mboxMu.Unlock()
	if n.stopped {
		return
	}
	n.mbox = append(n.mbox, ev)
	if n.met != nil {
		n.met.mboxDepth.Set(int64(len(n.mbox)))
	}
	n.mboxCond.Signal()
}

func (n *Node) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	// The mailbox is double-buffered: the drained batch's array becomes the
	// next mailbox, so a steady load appends into warm arrays.
	var spare []event
	for {
		n.mboxMu.Lock()
		for len(n.mbox) == 0 {
			n.mboxCond.Wait()
		}
		batch := n.mbox
		n.mbox = spare
		n.mboxMu.Unlock()
		if n.met != nil {
			n.met.mboxDepth.Set(0)
		}
		for _, ev := range batch {
			switch {
			case ev.stop:
				n.mboxMu.Lock()
				n.stopped = true
				n.mbox = nil // shed anything queued behind the stop
				n.mboxMu.Unlock()
				n.stopFlusher()
				return
			case ev.timer != nil:
				n.onTimer(ev.timer)
			case ev.env != nil:
				n.dispatch(*ev.env)
			}
			n.finishEvent()
		}
		clear(batch) // let go of the handled envelopes and timer events
		spare = batch[:0]
	}
}

// append writes rec through the node's log: asynchronously — recording the
// ticket in the event's pending context — on an AsyncLog, synchronously
// otherwise.
func (n *Node) append(rec wal.Record) {
	sampled := false
	if n.spans != nil {
		if c := n.txns[rec.Txn]; c != nil && c.sampled {
			sampled = true
			n.spans.Mark(uint64(rec.Txn), int(n.id), obs.StageWALAppend)
		}
	}
	if n.alog != nil {
		n.pendingTicket = n.alog.AppendAsync(rec)
		n.havePending = true
		n.defRecs = append(n.defRecs, rec)
		if sampled {
			n.defMarks = append(n.defMarks, rec.Txn)
		}
		return
	}
	n.walMu.Lock()
	//qlint:allow lockheld walMu exists solely to serialize appends; nothing acquires it while holding another lock, so the fsync cannot deadlock
	_ = n.log.Append(rec)
	n.walMu.Unlock()
	n.applyView([]wal.Record{rec})
	if sampled {
		n.spans.Mark(uint64(rec.Txn), int(n.id), obs.StageWALDurable)
	}
}

// notifyOutcome defers the notification behind a pending append (outcome
// reads see only durable records, so an early wake-up would be consumed
// before the decision is visible) or fires it immediately.
func (n *Node) notifyOutcome(txn types.TxnID) {
	if n.havePending {
		n.defNotifies = append(n.defNotifies, txn)
		return
	}
	n.h.notifyOutcome(txn)
}

// finishEvent closes the current event's pending context: the sends and
// notifications it gated on durability become one flush job. Events that
// appended nothing (or whose appends gate nothing) produce no job.
func (n *Node) finishEvent() {
	if !n.havePending {
		return
	}
	job := flushJob{
		ticket: n.pendingTicket, recs: n.defRecs, sends: n.defSends,
		notifies: n.defNotifies, marks: n.defMarks, finishes: n.defFinishes,
	}
	n.havePending = false
	n.defRecs, n.defSends, n.defNotifies = nil, nil, nil
	n.defMarks, n.defFinishes = nil, nil
	if len(job.recs) == 0 && len(job.sends) == 0 && len(job.notifies) == 0 {
		return
	}
	n.flushMu.Lock()
	if !n.flushStop {
		n.flushQ = append(n.flushQ, job)
	}
	n.flushMu.Unlock()
	n.flushCond.Signal()
}

// flusher releases durability-gated output in FIFO order: wait until the
// job's WAL batch is forced, then perform its sends and notifications. It
// runs only for AsyncLog-backed nodes.
func (n *Node) flusher(wg *sync.WaitGroup) {
	defer wg.Done()
	var spare []flushJob // double-buffered like the mailbox
	for {
		n.flushMu.Lock()
		for len(n.flushQ) == 0 && !n.flushStop {
			n.flushCond.Wait()
		}
		if n.flushStop {
			n.flushMu.Unlock()
			return
		}
		jobs := n.flushQ
		n.flushQ = spare
		n.flushMu.Unlock()
		for _, j := range jobs {
			var t0 int64
			if n.met != nil {
				t0 = time.Now().UnixNano()
			}
			if err := n.alog.WaitDurable(j.ticket); err != nil {
				continue // log closed or failed: shed, timeouts recover
			}
			if n.met != nil {
				n.met.flushWait.ObserveNS(time.Now().UnixNano() - t0)
			}
			// The records are durable now: publish them to the outcome view
			// BEFORE the notifications it gates, so a woken waiter observes
			// the decision.
			n.applyView(j.recs)
			for _, txn := range j.marks {
				n.spans.Mark(uint64(txn), int(n.id), obs.StageWALDurable)
			}
			for _, op := range j.sends {
				n.h.send(op.from, op.to, op.m)
			}
			for _, txn := range j.notifies {
				n.h.notifyOutcome(txn)
			}
			for _, fin := range j.finishes {
				n.spans.Finish(uint64(fin.txn), fin.outcome)
			}
		}
		clear(jobs)
		spare = jobs[:0]
	}
}

// stopFlusher sheds queued jobs and stops the flusher goroutine.
func (n *Node) stopFlusher() {
	n.flushMu.Lock()
	n.flushStop = true
	n.flushQ = nil
	n.flushMu.Unlock()
	n.flushCond.Broadcast()
}

func (n *Node) onTimer(t *timerEvent) {
	if n.crashed {
		return
	}
	c := n.txns[t.txn]
	if c == nil || c.gen[t.role] != t.gen {
		return
	}
	a := c.auto[t.role]
	if a == nil {
		return
	}
	a.OnTimer(t.token, n.env(c, t.role))
	n.reap(c)
}

// ensureCtx returns txn's context, creating it; the caller has ruled out
// that txn was already let go (it is not in n.done).
func (n *Node) ensureCtx(txn types.TxnID) *txnCtx {
	c := n.txns[txn]
	if c == nil {
		c = &txnCtx{txn: txn}
		n.txns[txn] = c
	}
	return c
}

func (n *Node) install(c *txnCtx, role protocol.Role, a protocol.Automaton) {
	c.gen[role]++
	c.auto[role] = a
	a.Start(n.env(c, role))
}

func (n *Node) dispatch(e msg.Envelope) {
	switch m := e.Msg.(type) {
	case beginMsg:
		c := n.ensureCtx(m.txn)
		c.ws = m.ws
		c.participants = m.participants
		c.coordSite = n.id
		n.met.onBegin()
		if n.met != nil {
			c.beganNS = time.Now().UnixNano()
		}
		if n.spans.Start(uint64(m.txn)) {
			c.sampled = true
		}
		n.install(c, protocol.RoleCoordinator, n.h.spec().NewCoordinator(m.txn, m.ws, m.participants))
		return
	case crashMsg:
		n.crashed = true
		for _, c := range n.txns {
			c.fence()
			n.reap(c)
		}
		return
	case restartMsg:
		n.crashed = false
		n.recoverVolatile()
		// Anti-entropy: repair copies that missed writes while down.
		for _, item := range n.store.Items() {
			if ic, ok := n.h.assignment().Item(item); ok {
				for _, cp := range ic.Copies {
					if cp.Site != n.id {
						n.h.send(n.id, cp.Site, msg.CopyReq{Item: item})
					}
				}
			}
		}
		return
	default:
	}

	if n.crashed {
		return
	}
	txn := msg.TxnOf(e.Msg)
	switch m := e.Msg.(type) {
	case msg.CopyReq:
		if n.store.Has(m.Item) && !n.locks.Locked(m.Item) {
			if v, err := n.store.Read(m.Item); err == nil {
				n.h.send(n.id, e.From, msg.CopyResp{Item: m.Item, Value: v.Value, Version: v.Version})
			}
		}

	case msg.CopyResp:
		if n.store.Has(m.Item) {
			_ = n.store.Apply(m.Item, m.Value, m.Version)
			n.h.maybeResolve(m.Item, n.id)
			n.h.maybeRejoin(m.Item, n.id)
		}

	case msg.VoteReq:
		if _, ok := n.done[txn]; ok {
			return
		}
		c := n.ensureCtx(txn)
		if len(c.ws) == 0 {
			c.ws = m.Writeset.Clone()
			c.participants = append([]types.SiteID(nil), m.Participants...)
			c.coordSite = m.Coord
		}
		if c.auto[protocol.RoleParticipant] == nil {
			// Adopt the coordinator's span if it sampled this transaction
			// (one recorder lookup per participant install; under the
			// distributed Server host the recorder never started it, so
			// spans stay coordinator-local there).
			if !c.sampled && n.spans.Sampled(uint64(txn)) {
				c.sampled = true
			}
			if c.sampled {
				n.spans.Mark(uint64(txn), int(n.id), obs.StageVoteReq)
			}
			n.install(c, protocol.RoleParticipant, n.h.spec().NewParticipant(txn, nil))
		}
		n.deliver(c, protocol.RoleParticipant, e)

	case msg.ElectionCall, msg.ElectionOK, msg.CoordAnnounce:
		c := n.txns[txn]
		if c == nil || c.terminal() {
			return
		}
		if c.elect == nil {
			epoch := uint32(0)
			if call, ok := m.(msg.ElectionCall); ok {
				epoch = uint32(call.Ballot >> 32)
			}
			n.startElection(c, epoch, false)
		}
		n.deliver(c, protocol.RoleElection, e)

	case msg.StateReq:
		c := n.txns[txn]
		if c == nil || c.auto[protocol.RoleParticipant] == nil {
			st := types.StateInitial
			if o, ok := n.done[txn]; ok {
				st = o.StateEquivalent()
			}
			n.h.send(n.id, e.From, msg.StateResp{Txn: txn, Epoch: m.Epoch, State: st})
			return
		}
		n.deliver(c, protocol.RoleParticipant, e)

	case msg.DecisionReq:
		c := n.txns[txn]
		if c == nil || c.auto[protocol.RoleParticipant] == nil {
			resp := msg.DecisionResp{Txn: txn, Uncommitted: true}
			if o, ok := n.done[txn]; ok {
				resp.Uncommitted = false
				if o == types.OutcomeCommitted {
					resp.Decision = types.DecisionCommit
				} else {
					resp.Decision = types.DecisionAbort
				}
			}
			n.h.send(n.id, e.From, resp)
			return
		}
		n.deliver(c, protocol.RoleParticipant, e)

	case msg.StateResp, msg.PCAck, msg.PAAck, msg.DecisionResp:
		c := n.txns[txn]
		if c == nil {
			return
		}
		if c.auto[protocol.RoleTerminator] != nil {
			n.deliver(c, protocol.RoleTerminator, e)
		} else if c.auto[protocol.RoleCoordinator] != nil {
			n.deliver(c, protocol.RoleCoordinator, e)
		}

	case msg.VoteResp, msg.Done:
		if c := n.txns[txn]; c != nil {
			if c.sampled {
				if _, isVote := e.Msg.(msg.VoteResp); isVote {
					n.spans.Mark(uint64(txn), int(e.From), obs.StageVote)
				}
			}
			n.deliver(c, protocol.RoleCoordinator, e)
		}

	case msg.PrepareToCommit, msg.PrepareToAbort, msg.Commit, msg.Abort:
		c := n.txns[txn]
		if c == nil {
			return
		}
		if c.auto[protocol.RoleParticipant] != nil {
			n.deliver(c, protocol.RoleParticipant, e)
			return
		}
		switch e.Msg.(type) {
		case msg.Commit:
			n.doCommit(c)
		case msg.Abort:
			n.doAbort(c)
		}
	}
}

func (n *Node) deliver(c *txnCtx, role protocol.Role, e msg.Envelope) {
	if a := c.auto[role]; a != nil {
		a.OnMessage(e.From, e.Msg, n.env(c, role))
		n.reap(c)
	}
}

func (n *Node) startElection(c *txnCtx, epoch uint32, campaign bool) {
	if c.terminal() {
		return
	}
	if campaign {
		if c.rounds >= n.h.maxTermRounds() {
			return
		}
		c.rounds++
		n.met.onTermRound()
		if c.sampled {
			n.spans.Mark(uint64(c.txn), int(n.id), obs.StageTermRound)
		}
	}
	if epoch < c.nextEpoch {
		epoch = c.nextEpoch
	}
	c.nextEpoch = epoch + 1
	peers := c.participants
	if len(peers) == 0 {
		peers = []types.SiteID{n.id}
	}
	f := election.New(c.txn, n.id, peers, epoch)
	f.OnElected = func(uint32) {
		term := n.h.spec().NewTerminator(c.txn, c.ws, c.participants, epoch)
		n.install(c, protocol.RoleTerminator, term)
	}
	f.OnRetry = func() {
		c.elect = nil
		n.startElection(c, c.nextEpoch, true)
	}
	c.elect = f
	c.gen[protocol.RoleElection]++
	c.auto[protocol.RoleElection] = f
	if campaign {
		f.Start(n.env(c, protocol.RoleElection))
	}
}

func (n *Node) lockLocalCopies(txn types.TxnID, ws types.Writeset) bool {
	var taken []types.ItemID
	for _, x := range ws.Items() {
		if !n.store.Has(x) {
			continue
		}
		if err := n.locks.TryAcquire(txn, x, lockmgr.Exclusive); err != nil {
			for _, y := range taken {
				n.locks.Release(txn, y)
			}
			return false
		}
		taken = append(taken, x)
	}
	return true
}

func (n *Node) recoverVolatile() {
	n.walMu.Lock()
	recs, _ := n.log.Records()
	n.walMu.Unlock()
	for txn, im := range wal.Replay(recs) {
		if _, ok := n.done[txn]; ok {
			continue
		}
		switch im.State {
		case types.StateCommitted:
			n.done[txn] = types.OutcomeCommitted
			continue
		case types.StateAborted:
			n.done[txn] = types.OutcomeAborted
			continue
		}
		c := n.ensureCtx(txn)
		if len(c.ws) == 0 {
			c.ws = im.Writeset.Clone()
		}
		if len(c.participants) == 0 {
			c.participants = append([]types.SiteID(nil), im.Participants...)
		}
		c.coordSite = im.Coord
		switch im.State {
		case types.StateWait, types.StatePC, types.StatePA:
			n.lockLocalCopies(txn, c.ws)
			n.install(c, protocol.RoleParticipant, n.h.spec().NewParticipant(txn, im))
		}
	}
}

func (n *Node) doCommit(c *txnCtx) {
	if c.terminal() {
		return
	}
	if c.sampled {
		n.spans.Mark(uint64(c.txn), int(n.id), obs.StageDecision)
	}
	n.append(wal.Record{Type: wal.RecCommit, Txn: c.txn})
	n.store.ApplyWriteset(c.ws, uint64(c.txn)+1)
	n.h.noteCommitApplied(n, c)
	n.locks.ReleaseAll(c.txn)
	n.conclude(c, types.OutcomeCommitted)
	n.met.onCommit()
	n.noteDecision(c, "committed")
	n.notifyOutcome(c.txn)
}

func (n *Node) doAbort(c *txnCtx) {
	if c.terminal() {
		return
	}
	if c.sampled {
		n.spans.Mark(uint64(c.txn), int(n.id), obs.StageDecision)
	}
	n.append(wal.Record{Type: wal.RecAbort, Txn: c.txn})
	n.locks.ReleaseAll(c.txn)
	n.conclude(c, types.OutcomeAborted)
	n.met.onAbort()
	n.noteDecision(c, "aborted")
	n.notifyOutcome(c.txn)
}

// noteDecision records the coordinator-side terminal observability: the
// begin→decision latency sample (commits only) and the span completion,
// which defers behind the decision record's pending append so a finished
// span always describes a durable outcome.
func (n *Node) noteDecision(c *txnCtx, outcome string) {
	if c.coordSite != n.id {
		return
	}
	if n.met != nil && c.beganNS != 0 && outcome == "committed" {
		n.met.commitNS.ObserveNS(time.Now().UnixNano() - c.beganNS)
	}
	if !c.sampled {
		return
	}
	if n.havePending {
		n.defFinishes = append(n.defFinishes, spanFinish{txn: c.txn, outcome: outcome})
		return
	}
	n.spans.Finish(uint64(c.txn), outcome)
}

// conclude records that txn has terminated here with outcome o. The
// participant and the election have nothing left to do; the rest of the
// context goes as soon as reap allows.
func (n *Node) conclude(c *txnCtx, o types.Outcome) {
	c.outcome = o
	n.done[c.txn] = o
	c.drop(protocol.RoleParticipant)
	c.drop(protocol.RoleElection)
	n.reap(c)
}

// reap lets go of a terminated transaction's context — automata, writeset,
// armed timers — once no coordinator-side automaton still has work: a
// coordinator whose own participant voted no has yet to read that vote and
// tell the others, and a terminator that learnt the outcome from a rival has
// yet to close its round. It runs after every automaton step, so in the
// common case, where the decision reaches this site after its coordinator
// sent it, the context goes with the decision.
func (n *Node) reap(c *txnCtx) {
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
	delete(n.txns, c.txn)
}

// env builds the protocol.Env bound to (node, txn, role, generation).
func (n *Node) env(c *txnCtx, role protocol.Role) *nodeEnv {
	return &nodeEnv{node: n, txn: c.txn, role: role, gen: c.gen[role]}
}

type nodeEnv struct {
	node *Node
	txn  types.TxnID
	role protocol.Role
	gen  uint32
}

var _ protocol.Env = (*nodeEnv)(nil)

func (e *nodeEnv) Self() types.SiteID { return e.node.id }

func (e *nodeEnv) Now() sim.Time { return sim.Time(time.Since(e.node.h.startTime())) }

func (e *nodeEnv) T() sim.Duration { return sim.Duration(e.node.h.timeoutBase()) }

func (e *nodeEnv) Assignment() *voting.Assignment { return e.node.h.assignment() }

// Send routes through the host, unless this event has a WAL append in
// flight — then the send joins the event's flush job and goes out only once
// the append is durable, preserving force-before-send.
func (e *nodeEnv) Send(to types.SiteID, m msg.Message) {
	n := e.node
	if n.havePending {
		n.defSends = append(n.defSends, sendOp{from: n.id, to: to, m: m})
		return
	}
	n.h.send(n.id, to, m)
}

func (e *nodeEnv) SetTimer(d sim.Duration, token int) {
	n := e.node
	c := n.txns[e.txn]
	if c == nil || c.gen[e.role] != e.gen {
		return // let go or fenced during this very call: the expiry could only be dropped
	}
	t := &timerEvent{txn: e.txn, role: e.role, gen: e.gen, token: token}
	c.timers = append(c.timers, time.AfterFunc(time.Duration(d), func() {
		n.post(event{timer: t}) // stop-safe: a stopped node sheds the event
	}))
}

func (e *nodeEnv) Append(rec wal.Record) { e.node.append(rec) }

func (e *nodeEnv) Commit(txn types.TxnID) {
	if c := e.node.txns[txn]; c != nil {
		e.node.doCommit(c)
	}
}

func (e *nodeEnv) Abort(txn types.TxnID) {
	if c := e.node.txns[txn]; c != nil {
		e.node.doAbort(c)
	}
}

func (e *nodeEnv) Block(types.TxnID) {}

func (e *nodeEnv) RequestTermination(txn types.TxnID) {
	n := e.node
	c := n.txns[txn]
	if c == nil || c.terminal() {
		return
	}
	if c.elect != nil && !c.elect.Won() {
		return
	}
	n.startElection(c, c.nextEpoch, true)
}

func (e *nodeEnv) TerminatorDone(types.TxnID) {}

func (e *nodeEnv) AcquireLocks(txn types.TxnID) bool {
	n := e.node
	c := n.txns[txn]
	if c == nil {
		return false
	}
	ok := n.lockLocalCopies(txn, c.ws)
	if ok && c.sampled {
		n.spans.Mark(uint64(txn), int(n.id), obs.StageLocks)
	}
	return ok
}

func (e *nodeEnv) Tracef(string, ...any) {}
