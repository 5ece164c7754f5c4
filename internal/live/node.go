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
	h  *hostCore
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

	log wal.AsyncLog
	// leased is the highest transaction ID a LEASE record covers, and
	// leaseTicket that record's ticket (see lease); only a Server's begins
	// consult them.
	leased      uint32
	leaseTicket wal.Ticket

	// Event-scoped pipelining state, owned by the node goroutine. An
	// event's WAL appends return a ticket instead of blocking on the force;
	// the sends and outcome notifications that the protocol gates on
	// durability are buffered here and handed to the flusher goroutine at
	// the end of the event. The event loop moves on to the next
	// transaction's event while the batch is being forced — that is what
	// lets independent transactions overlap their protocol rounds on one
	// site. Only forced records gate (wal.RecType.Forced, the site package's
	// durability table): an event that appended none publishes at its end.
	pendingTicket wal.Ticket   // what the event's output waits on: its last forced append, or a lease (see lease); 0 if none
	defRecs       []wal.Record // the event's appends
	defSends      []sendOp
	defNotifies   []types.TxnID
	defMarks      []types.TxnID // sampled txns whose appends await their durable mark
	defFinishes   []spanFinish  // sampled decisions whose spans close once durable

	flushMu   sync.Mutex
	flushCond *sync.Cond
	flushQ    []flushJob
	flushStop bool

	// view folds the node's log records into per-transaction states
	// (wal.View, the fold Replay uses), maintained incrementally after the
	// whole event that appended them — so a commit is published only once
	// its writeset is applied: by the flusher's release step once a forced
	// record is durable, and at the end of the event for an event that
	// forced nothing (an ABORT whose loss a restart would read as the same
	// abort). Outcome reads (WaitOutcome aggregation, Violated,
	// Server.Outcome) look a transaction up here instead of replaying the
	// whole log, which is O(history) per probe.
	//
	// view is not the kernel's own outcome record: view learns a commit
	// only when the fsync lands and is read by client goroutines under
	// viewMu; the kernel's is written at the decision and touched only by
	// the event loop. A StateReq or OutcomeReq that arrives inside that
	// fsync window must already see the decision, and answering from view
	// would cost every protocol message a mutex.
	viewMu sync.Mutex
	view   wal.View

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

func newNode(id types.SiteID, h *hostCore, tracker *voting.Tracker, log wal.AsyncLog, o *obs.Observer) *Node {
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
	}
	n.k = site.New(id, site.Config{
		Spec:       h.spec,
		Assignment: h.asgn,
		T:          sim.Duration(h.t),
		Store:      n.store,
		Locks:      n.locks,
		Tracker:    tracker,
	}, (*nodeHost)(n))
	n.met = newNodeMetrics(o, id)
	n.spans = o.Spanner()
	n.locks.SetMetrics(lockmgr.NewMetrics(o.Reg(), id))
	if gl, ok := log.(*wal.GroupLog); ok {
		gl.RegisterMetrics(o.Reg(), id)
	}
	recs, _ := log.Records() // what survives of a reopened log
	n.applyView(recs)
	n.mboxCond = sync.NewCond(&n.mboxMu)
	n.flushCond = sync.NewCond(&n.flushMu)
	return n
}

// applyView folds durable records into the outcome view.
func (n *Node) applyView(recs []wal.Record) {
	n.viewMu.Lock()
	n.view.Apply(recs...)
	n.viewMu.Unlock()
}

// run starts the node's event loop and its flusher, both counted on wg.
func (n *Node) run(wg *sync.WaitGroup) {
	wg.Add(2)
	go n.loop(wg)
	go n.flusher(wg)
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
		if m.lease {
			n.lease(m.txn)
		}
		n.k.Begin(m.txn, m.ws, m.participants)
	case crashMsg:
		n.crashed = true
		n.k.Crash()
	case restartMsg:
		n.crashed = false
		recs, _ := n.log.Records()
		n.k.Recover(recs)
		// Anti-entropy: repair copies that missed writes while down. The
		// pulls take the kernel's send path, so they queue behind Recover's
		// outcome queries: a long pull burst cannot crowd the queries out of
		// a full transport queue.
		for _, p := range n.tracker.RestartPulls(n.id, n.store.Has) {
			(*nodeHost)(n).Send(p.To, msg.CopyReq{Item: p.Item})
		}
	default:
		if !n.crashed {
			n.k.Handle(e)
		}
	}
}

// finishEvent closes the current event's pending context: its appends and
// the sends and notifications it gated on a forced record become one flush
// job. Events that appended nothing and wait on no lease (see lease) produce
// no job, and an event whose records are all unforced (VOTED-NO, ABORT)
// publishes them and notifies at once: a crash that loses them leaves the
// site where their absence puts it.
func (n *Node) finishEvent() {
	if len(n.defRecs) == 0 && n.pendingTicket == 0 {
		return
	}
	job := flushJob{
		ticket: n.pendingTicket, recs: n.defRecs, sends: n.defSends,
		notifies: n.defNotifies, marks: n.defMarks, finishes: n.defFinishes,
	}
	n.pendingTicket = 0
	n.defRecs, n.defSends, n.defNotifies = nil, nil, nil
	n.defMarks, n.defFinishes = nil, nil
	if job.ticket == 0 {
		n.publish(job)
		return
	}
	n.flushMu.Lock()
	if !n.flushStop {
		n.flushQ = append(n.flushQ, job)
	}
	n.flushMu.Unlock()
	n.flushCond.Signal()
}

// flusher releases durability-gated output in FIFO order (see release).
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
			n.release(j)
		}
		clear(jobs)
		spare = jobs[:0]
	}
}

// release is the flusher's step for one job: wait until the job's WAL batch
// is forced, then publish it. The job was queued at the end of its event, so
// by now the event's commits have applied their writesets: a view that
// reads committed never runs ahead of the store.
func (n *Node) release(j flushJob) {
	var t0 int64
	if n.met != nil {
		t0 = time.Now().UnixNano()
	}
	if err := n.log.WaitDurable(j.ticket); err != nil {
		return // log closed or failed: shed, timeouts recover
	}
	if n.met != nil {
		n.met.flushWait.ObserveNS(time.Now().UnixNano() - t0)
	}
	n.publish(j)
}

// publish folds a job's records into the outcome view BEFORE the
// notifications it gates, so a woken waiter observes the decision, then
// performs its sends and notifications.
func (n *Node) publish(j flushJob) {
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

func (h *nodeHost) Now() sim.Time { return sim.Time(time.Since(h.h.start)) }

func (h *nodeHost) AfterFunc(d sim.Duration, t site.Timer) site.Stopper {
	n := (*Node)(h)
	return time.AfterFunc(time.Duration(d), func() {
		n.post(event{timer: &t}) // stop-safe: a stopped node sheds the event
	})
}

// Send routes through the host, unless this event has a forced WAL append in
// flight — then the send joins the event's flush job and goes out only once
// the append is durable, preserving force-before-send.
func (h *nodeHost) Send(to types.SiteID, m msg.Message) {
	if h.pendingTicket != 0 {
		h.defSends = append(h.defSends, sendOp{from: h.id, to: to, m: m})
		return
	}
	h.h.send(h.id, to, m)
}

// Append writes rec through the node's log (see append); a sampled forced
// record also marks its span when it is durable.
func (h *nodeHost) Append(c *txnCtx, rec wal.Record) {
	n := (*Node)(h)
	if c.X.sampled {
		n.spans.Mark(uint64(rec.Txn), int(n.id), obs.StageWALAppend)
		if rec.Type.Forced() {
			n.defMarks = append(n.defMarks, rec.Txn)
		}
	}
	n.append(rec)
}

// append writes rec through the node's log as part of the current event. A
// forced record's ticket gates everything the event sends or publishes after
// it; an unforced one only joins the event's records for the view.
func (n *Node) append(rec wal.Record) {
	t := n.log.AppendAsync(rec)
	n.defRecs = append(n.defRecs, rec)
	if rec.Type.Forced() {
		n.pendingTicket = t
	}
}

// idBlock is how many transaction IDs one LEASE record reserves: a Server
// forces one record per idBlock transactions it begins, and a restart skips
// at most idBlock-1 IDs that never went out.
const idBlock = 1 << 12

// lease makes the event send nothing before a LEASE record over txn's ID is
// durable: it forces one over the block of txn's ID, unless an earlier lease
// covers it, and gates the event on that earlier lease while it is still
// being forced. A coordinator that is a participant logs nothing of a
// transaction before its own vote, so only the lease tells a restarted
// Server which IDs its peers may already hold.
func (n *Node) lease(txn types.TxnID) {
	seq := uint32(txn)
	if seq > n.leased {
		n.leased = seq | (idBlock - 1) // the last ID of seq's block
		n.append(wal.Record{Type: wal.RecLease, Txn: txn&^0xFFFFFFFF | types.TxnID(n.leased), Coord: n.id})
		n.leaseTicket = n.pendingTicket
		return
	}
	if n.leaseTicket > n.log.Durable() {
		n.pendingTicket = max(n.pendingTicket, n.leaseTicket)
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
	case site.AbortedAtBegin:
		n.met.onBeginAbort()
		return
	case site.TermRound:
		n.met.onTermRound()
	}
	if c.X.sampled {
		n.spans.Mark(uint64(c.ID), int(at), stageOf[ev])
	}
}

// Decided counts the decision and — at the coordinator — records the
// begin→decision latency sample (commits only). Waking the waiters and
// completing the span both defer behind the decision record, which Decide
// appended in this event: a woken waiter sees the decision, and a finished
// span always describes a durable outcome.
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
		if c.X.sampled {
			n.defFinishes = append(n.defFinishes, spanFinish{txn: c.ID, outcome: outcome})
		}
	}
	n.defNotifies = append(n.defNotifies, c.ID)
}

// Contradicted has no sink of its own here: Cluster.Violated reads a mixed
// outcome off the durable views.
func (h *nodeHost) Contradicted(types.TxnID, types.Outcome) {}

func (h *nodeHost) RefusesVote(types.TxnID) bool { return false }

func (h *nodeHost) Tracef(string, ...any) {}
