package live

import (
	"sync"
	"time"

	"qcommit/internal/lockmgr"
	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/sim"
	"qcommit/internal/site"
	"qcommit/internal/storage"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// txnExt is what the live runtime keeps per transaction, riding in the
// kernel's context. sampled caches whether the transaction carries a
// recording span, so unsampled transactions never touch the span recorder's
// mutex after the one Start/Sampled probe. beganNS is the coordinator's begin
// timestamp backing the commit-latency histogram (0 when metrics are off or
// this site is not the coordinator).
type txnExt struct {
	sampled bool
	beganNS int64
}

// txnCtx is the kernel's per-transaction context with the live slot.
type txnCtx = site.Txn[txnExt]

// Node is one live database site: a goroutine owning the site's durable
// state and driving its transaction kernel (package site). All kernel access
// happens on the node goroutine; the node is the kernel's host — mailbox,
// wall-clock timers, force-before-send, metrics and spans.
type Node struct {
	id types.SiteID
	h  host
	k  *site.Kernel[txnExt]
	// tracker is the host's access-strategy tracker (nil under a Server).
	tracker *voting.Tracker
	// crashed gates deliveries between a crash and the restart (the mailbox
	// may still hold envelopes the transport accepted before the crash).
	crashed bool

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
	//
	// view is not the kernel's own outcome record: view learns an outcome
	// only when the fsync lands and is read by client goroutines under
	// viewMu; the kernel's is written at the decision and touched only by
	// the event loop. A StateReq or DecisionReq that arrives inside that
	// fsync window must already see the decision, and answering from view
	// would cost every protocol message a mutex.
	viewMu sync.Mutex
	view   map[types.TxnID]types.Outcome

	store *storage.Store
	locks *lockmgr.Manager

	// met and spans are the optional observability hooks (both nil-safe and
	// nil when the host was built without an Observer).
	met   *nodeMetrics
	spans *obs.Spans
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

func newNode(id types.SiteID, h host, tracker *voting.Tracker, log wal.Log, o *obs.Observer) *Node {
	if log == nil {
		log = wal.NewMemLog()
	}
	n := &Node{
		id:      id,
		h:       h,
		tracker: tracker,
		log:     log,
		store:   storage.NewStore(id),
		locks:   lockmgr.New(id),
		view:    make(map[types.TxnID]types.Outcome),
	}
	n.k = site.New(id, site.Config{
		Spec:                 h.spec(),
		Assignment:           h.assignment(),
		T:                    sim.Duration(h.timeoutBase()),
		MaxTerminationRounds: h.maxTermRounds(),
		Store:                n.store,
		Locks:                n.locks,
		Tracker:              tracker,
	}, (*nodeHost)(n))
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
				if !n.crashed {
					n.k.Fire(*ev.timer)
				}
			case ev.env != nil:
				n.dispatch(*ev.env)
			}
			n.finishEvent()
		}
		clear(batch) // let go of the handled envelopes and timer events
		spare = batch[:0]
	}
}

// dispatch handles one mailbox envelope: the control messages are the
// host's, everything else is the kernel's.
func (n *Node) dispatch(e msg.Envelope) {
	switch m := e.Msg.(type) {
	case beginMsg:
		n.k.Begin(m.txn, m.ws, m.participants)
	case crashMsg:
		n.crashed = true
		n.k.Crash()
	case restartMsg:
		n.crashed = false
		n.walMu.Lock()
		recs, _ := n.log.Records()
		n.walMu.Unlock()
		n.k.Recover(recs)
		// Anti-entropy: repair copies that missed writes while down.
		for _, p := range n.tracker.RestartPulls(n.id, n.store.Items()) {
			n.h.send(p.From, p.To, msg.CopyReq{Item: p.Item})
		}
	default:
		if !n.crashed {
			n.k.Handle(e)
		}
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

// nodeHost is a Node seen as its kernel's host.
type nodeHost Node

var _ site.Host[txnExt] = (*nodeHost)(nil)

func (h *nodeHost) Now() sim.Time { return sim.Time(time.Since(h.h.startTime())) }

func (h *nodeHost) AfterFunc(d sim.Duration, t site.Timer) site.Stopper {
	n := (*Node)(h)
	return time.AfterFunc(time.Duration(d), func() {
		n.post(event{timer: &t}) // stop-safe: a stopped node sheds the event
	})
}

// Send routes through the host, unless this event has a WAL append in
// flight — then the send joins the event's flush job and goes out only once
// the append is durable, preserving force-before-send.
func (h *nodeHost) Send(to types.SiteID, m msg.Message) {
	if h.havePending {
		h.defSends = append(h.defSends, sendOp{from: h.id, to: to, m: m})
		return
	}
	h.h.send(h.id, to, m)
}

// Append writes rec through the node's log: asynchronously — recording the
// ticket in the event's pending context — on an AsyncLog, synchronously
// otherwise.
func (h *nodeHost) Append(c *txnCtx, rec wal.Record) {
	n := (*Node)(h)
	sampled := c.X.sampled
	if sampled {
		n.spans.Mark(uint64(rec.Txn), int(n.id), obs.StageWALAppend)
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

// stageOf maps the kernel's commit-path events onto span stages.
var stageOf = [...]string{
	site.VoteRequested: obs.StageVoteReq,
	site.LocksTaken:    obs.StageLocks,
	site.VoteReceived:  obs.StageVote,
	site.Deciding:      obs.StageDecision,
	site.TermRound:     obs.StageTermRound,
}

func (h *nodeHost) Observe(c *txnCtx, ev site.Event, at types.SiteID) {
	n := (*Node)(h)
	switch ev {
	case site.Begun:
		n.met.onBegin()
		if n.met != nil {
			c.X.beganNS = time.Now().UnixNano()
		}
		if n.spans.Start(uint64(c.ID)) {
			c.X.sampled = true
		}
		return
	case site.VoteRequested:
		// Adopt the coordinator's span if it sampled this transaction (one
		// recorder lookup per participant install; under the distributed
		// Server host the recorder never started it, so spans stay
		// coordinator-local there).
		if !c.X.sampled && n.spans.Sampled(uint64(c.ID)) {
			c.X.sampled = true
		}
	case site.TermRound:
		n.met.onTermRound()
	}
	if c.X.sampled {
		n.spans.Mark(uint64(c.ID), int(at), stageOf[ev])
	}
}

// Decided counts the decision, wakes its waiters and — at the coordinator —
// records the terminal observability: the begin→decision latency sample
// (commits only) and the span completion, which defers behind the decision
// record's pending append so a finished span always describes a durable
// outcome.
func (h *nodeHost) Decided(c *txnCtx, o types.Outcome) {
	n := (*Node)(h)
	outcome := "aborted"
	if o == types.OutcomeCommitted {
		outcome = "committed"
		n.met.onCommit()
	} else {
		n.met.onAbort()
	}
	if c.Coord == n.id {
		if n.met != nil && c.X.beganNS != 0 && o == types.OutcomeCommitted {
			n.met.commitNS.ObserveNS(time.Now().UnixNano() - c.X.beganNS)
		}
		switch {
		case !c.X.sampled:
		case n.havePending:
			n.defFinishes = append(n.defFinishes, spanFinish{txn: c.ID, outcome: outcome})
		default:
			n.spans.Finish(uint64(c.ID), outcome)
		}
	}
	n.notifyOutcome(c.ID)
}

// Contradicted has no sink of its own here: Cluster.Violated reads a mixed
// outcome off the durable views.
func (h *nodeHost) Contradicted(types.TxnID, types.Outcome) {}

func (h *nodeHost) RefusesVote(types.TxnID) bool { return false }

func (h *nodeHost) Tracef(string, ...any) {}
