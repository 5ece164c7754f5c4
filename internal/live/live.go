// Package live runs the same site kernel and protocol automata as the
// deterministic engine on a real concurrent runtime: one goroutine per
// database site, a pluggable transport as the message fabric, wall-clock
// timers for the protocol timeouts. It is the "deployment-shaped" counterpart
// of package engine — package site is shared, only what drives it differs.
package live

import (
	"fmt"
	"sync"
	"time"

	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/protocol"
	"qcommit/internal/site"
	"qcommit/internal/transport"
	"qcommit/internal/transport/inproc"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// Config parameterizes a live cluster.
type Config struct {
	// Assignment is the weighted-voting replica configuration.
	Assignment *voting.Assignment
	// Strategy selects the data-access strategy layered over the
	// assignment (StrategyQuorum default, StrategyMissingWrites for
	// adaptive read-one/write-all with per-item demotion, or
	// StrategyDynamic for vote reassignment onto each committed write's
	// survivor set), exactly as in the deterministic engine.
	Strategy voting.Strategy
	// Spec is the commit+termination protocol.
	Spec protocol.Spec
	// MinDelay/MaxDelay bound simulated propagation delay (wall clock).
	// Defaults 200µs–2ms, keeping 3T timeouts test-friendly.
	MinDelay, MaxDelay time.Duration
	// TimeoutBase is the protocol timeout unit T. Unlike the deterministic
	// simulator, wall-clock runs pay goroutine scheduling and marshalling
	// overhead on top of propagation delay, so T needs headroom; it defaults
	// to 4× the larger delay bound.
	TimeoutBase time.Duration
	// Seed drives the delay randomness.
	Seed int64
	// MaxTerminationRounds caps termination retries (default 3).
	MaxTerminationRounds int
	// Transport optionally supplies the message fabric serving every site.
	// Nil builds the in-process fabric from MinDelay/MaxDelay/Seed — the
	// historical mailbox path. A tcp.Fabric here runs the same cluster over
	// real loopback sockets. The cluster takes ownership and closes the
	// transport on Stop.
	Transport transport.Transport
	// WAL optionally supplies each site's log (nil sites fall back to a
	// fresh MemLog, which forces nothing and gates no send). A wal.GroupLog,
	// the on-disk log and the one wal.AsyncLog, enables commit pipelining: a
	// node's durability-gated sends are released by a flusher goroutine once
	// the group fsync lands, so the event loop keeps processing other
	// transactions while a batch is being forced. The caller retains
	// ownership and closes the logs after Stop.
	WAL func(types.SiteID) wal.Log
	// Obs optionally attaches an observability sink: every node registers
	// its metric set (and its lock manager's and group WAL's) on the
	// observer's registry, and the observer's span recorder samples
	// commit-path traces. Nil — the default — keeps every hook a single
	// pointer check.
	Obs *obs.Observer
}

type event struct {
	env   *msg.Envelope
	timer *site.Timer
	stop  bool
}

// Cluster is a set of live site goroutines.
type Cluster struct {
	cfg   Config
	start time.Time

	// tr is the message fabric. All routing policy — propagation delay,
	// partition and crash filtering, the wire-codec round-trip — lives
	// behind it; the cluster only posts inbound envelopes to node mailboxes
	// and consults the transport's topology view.
	tr transport.Transport

	mu      sync.Mutex // guards nextTxn
	nextTxn types.TxnID

	nodes map[types.SiteID]*Node
	wg    sync.WaitGroup

	// tracker is the access-strategy layer every node's kernel reports
	// applied commits and installed copies to; it sees the nodes through
	// clusterPeers.
	tracker *voting.Tracker

	// noteMu guards notes, the per-transaction outcome watch channels
	// behind WaitOutcome: every local decision (and every crash or restart,
	// which changes the up-site set the aggregate is taken over) closes the
	// transaction's current channel, so waiters re-evaluate immediately
	// instead of sleep-polling. Each note counts its waiters, and the last
	// waiter out removes an unnotified entry — a long-lived cluster must
	// not accumulate one map entry per transaction ever waited on.
	noteMu sync.Mutex
	notes  map[types.TxnID]*outcomeNote
}

// outcomeNote is one transaction's outcome watch: the broadcast channel and
// the number of WaitOutcome loops currently holding it.
type outcomeNote struct {
	ch      chan struct{}
	waiters int
}

// New builds and starts one goroutine per site in the assignment.
func New(cfg Config) *Cluster {
	if !cfg.Strategy.Valid() {
		panic(fmt.Sprintf("live: invalid Config.Strategy %v", cfg.Strategy))
	}
	if cfg.MinDelay == 0 && cfg.MaxDelay == 0 {
		cfg.MinDelay, cfg.MaxDelay = 200*time.Microsecond, 2*time.Millisecond
	}
	if cfg.TimeoutBase == 0 {
		cfg.TimeoutBase = 4 * max(cfg.MinDelay, cfg.MaxDelay)
	}
	if cfg.MaxTerminationRounds <= 0 {
		cfg.MaxTerminationRounds = 3
	}
	tr := cfg.Transport
	if tr == nil {
		tr = inproc.New(inproc.Options{MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay, Seed: cfg.Seed})
	}
	cl := &Cluster{
		cfg:   cfg,
		start: time.Now(),
		tr:    tr,
		nodes: make(map[types.SiteID]*Node),
		notes: make(map[types.TxnID]*outcomeNote),
	}
	cl.tracker = voting.NewTracker(cfg.Assignment, cfg.Strategy, (*clusterPeers)(cl))
	seen := make(map[types.SiteID]bool)
	for _, item := range cfg.Assignment.Items() {
		ic, _ := cfg.Assignment.Item(item)
		for _, cp := range ic.Copies {
			seen[cp.Site] = true
		}
	}
	for id := range seen {
		var log wal.Log
		if cfg.WAL != nil {
			log = cfg.WAL(id)
		}
		n := newNode(id, cl, cl.tracker, log, cfg.Obs)
		cl.nodes[id] = n
	}
	for _, item := range cfg.Assignment.Items() {
		ic, _ := cfg.Assignment.Item(item)
		for _, cp := range ic.Copies {
			cl.nodes[cp.Site].store.Init(item, 0)
		}
	}
	for _, n := range cl.nodes {
		cl.wg.Add(1)
		go n.loop(&cl.wg)
		if n.alog != nil {
			cl.wg.Add(1)
			go n.flusher(&cl.wg)
		}
	}
	tr.Bind(cl.deliver)
	return cl
}

// deliver posts an inbound envelope to the destination node's mailbox; it is
// the transport's delivery callback and must not block (post never does).
func (cl *Cluster) deliver(env msg.Envelope) {
	if n := cl.nodes[env.To]; n != nil {
		n.post(event{env: &env})
	}
}

// Transport exposes the cluster's message fabric.
func (cl *Cluster) Transport() transport.Transport { return cl.tr }

// Node returns a site's node.
func (cl *Cluster) Node(id types.SiteID) *Node { return cl.nodes[id] }

// T is the protocol timeout base.
func (cl *Cluster) T() time.Duration { return cl.cfg.TimeoutBase }

// Begin submits a transaction at the coordinator site and returns its ID.
func (cl *Cluster) Begin(coord types.SiteID, ws types.Writeset) types.TxnID {
	cl.mu.Lock()
	cl.nextTxn++
	txn := cl.nextTxn
	cl.mu.Unlock()
	participants := cl.cfg.Assignment.Participants(ws.Items())
	n := cl.nodes[coord]
	n.post(event{env: &msg.Envelope{From: coord, To: coord, Msg: beginMsg{txn: txn, ws: ws.Clone(), participants: participants}}})
	return txn
}

// beginMsg is an internal control message carried through the mailbox so all
// automaton access stays on the node goroutine.
type beginMsg struct {
	txn          types.TxnID
	ws           types.Writeset
	participants []types.SiteID
}

// Kind implements msg.Message (never marshalled).
func (beginMsg) Kind() msg.Kind { return msg.KindInvalid }

// Crash takes a site down (volatile state lost, WAL kept).
func (cl *Cluster) Crash(id types.SiteID) {
	cl.tr.Crash(id)
	cl.nodes[id].post(event{env: &msg.Envelope{Msg: crashMsg{}}})
	cl.notifyAllOutcomes() // the up-site set changed; waiters re-aggregate
}

type crashMsg struct{}

func (crashMsg) Kind() msg.Kind { return msg.KindInvalid }

// Restart recovers a crashed site from its WAL.
func (cl *Cluster) Restart(id types.SiteID) {
	cl.tr.Restart(id)
	cl.nodes[id].post(event{env: &msg.Envelope{Msg: restartMsg{}}})
	cl.notifyAllOutcomes() // the up-site set changed; waiters re-aggregate
}

type restartMsg struct{}

func (restartMsg) Kind() msg.Kind { return msg.KindInvalid }

// Partition splits the network into groups; unlisted sites form a residual
// group.
func (cl *Cluster) Partition(groups ...[]types.SiteID) {
	cl.tr.Partition(groups...)
}

// Heal reconnects the network and starts the adaptive strategies' catch-up
// pass (voting.Tracker.HealPulls): every copy carrying a missing write, or
// outside its item's current majority basis, asks its peers for their current
// versions.
func (cl *Cluster) Heal() {
	cl.tr.Heal()
	for _, p := range cl.tracker.HealPulls() {
		cl.send(p.From, p.To, msg.CopyReq{Item: p.Item})
	}
}

// send routes a message through the transport, which applies delay,
// loss-on-partition and the wire-codec round-trip.
func (cl *Cluster) send(from, to types.SiteID, m msg.Message) {
	cl.tr.Send(msg.Envelope{From: from, To: to, Msg: m})
}

// host accessors (see host.go): Cluster hosts every node of the assignment.

func (cl *Cluster) spec() protocol.Spec            { return cl.cfg.Spec }
func (cl *Cluster) assignment() *voting.Assignment { return cl.cfg.Assignment }
func (cl *Cluster) timeoutBase() time.Duration     { return cl.cfg.TimeoutBase }
func (cl *Cluster) maxTermRounds() int             { return cl.cfg.MaxTerminationRounds }
func (cl *Cluster) startTime() time.Time           { return cl.start }

// OutcomeAt reads txn's fate at one site from its WAL.
func (cl *Cluster) OutcomeAt(id types.SiteID, txn types.TxnID) types.Outcome {
	return walOutcome(cl.nodes[id], txn)
}

// watchOutcome registers the caller as a waiter on txn's outcome note,
// whose channel is closed at the next outcome-affecting event: a site
// records a local decision, or a crash/restart changes the up-site set the
// aggregate ranges over. Waiters must register BEFORE evaluating the
// aggregate, so a decision landing between evaluation and wait still wakes
// them, and must pair every registration with unwatchOutcome.
func (cl *Cluster) watchOutcome(txn types.TxnID) *outcomeNote {
	cl.noteMu.Lock()
	defer cl.noteMu.Unlock()
	note := cl.notes[txn]
	if note == nil {
		note = &outcomeNote{ch: make(chan struct{})}
		cl.notes[txn] = note
	}
	note.waiters++
	return note
}

// unwatchOutcome releases one registration; the last waiter out removes the
// entry if no notification consumed it already (the channel-closed paths
// find cl.notes[txn] pointing at a fresh note or nothing).
func (cl *Cluster) unwatchOutcome(txn types.TxnID, note *outcomeNote) {
	cl.noteMu.Lock()
	defer cl.noteMu.Unlock()
	note.waiters--
	if note.waiters == 0 && cl.notes[txn] == note {
		delete(cl.notes, txn)
	}
}

// notifyOutcome wakes the waiters watching txn.
func (cl *Cluster) notifyOutcome(txn types.TxnID) {
	cl.noteMu.Lock()
	if note, ok := cl.notes[txn]; ok {
		close(note.ch)
		delete(cl.notes, txn)
	}
	cl.noteMu.Unlock()
}

// notifyAllOutcomes wakes every waiter (crash/restart changed the up set).
func (cl *Cluster) notifyAllOutcomes() {
	cl.noteMu.Lock()
	for txn, note := range cl.notes {
		close(note.ch)
		delete(cl.notes, txn)
	}
	cl.noteMu.Unlock()
}

// outcomeSnapshot aggregates txn's fate across the up sites right now. It
// returns settled=true once every up site holding state for txn reports the
// same terminal outcome (or a mixed terminal pair — callers detect that via
// Violated); otherwise it returns the value WaitOutcome should report if the
// deadline struck now (blocked if some site is mid-protocol, else the
// aggregate so far).
func (cl *Cluster) outcomeSnapshot(txn types.TxnID) (types.Outcome, bool) {
	agg := types.OutcomeUnknown
	for id := range cl.nodes {
		if cl.tr.Down(id) {
			continue
		}
		o := cl.OutcomeAt(id, txn)
		if o == types.OutcomeUnknown {
			continue
		}
		if !o.StateEquivalent().Terminal() {
			return types.OutcomeBlocked, false
		}
		if agg == types.OutcomeUnknown {
			agg = o
		} else if agg != o {
			return agg, true // mixed — caller detects via Violated
		}
	}
	return agg, agg != types.OutcomeUnknown
}

// WaitOutcome blocks until every up site holding a copy reports the same
// terminal outcome for txn, or the deadline passes (returning the aggregate
// at that point: blocked/unknown if not uniform terminal). Crashed sites are
// excluded — they learn the outcome from their WAL and the termination
// protocol after Restart. Waiters are woken by per-transaction decision
// notifications (and by crash/restart events), so they observe the outcome
// as soon as it lands and the deadline is honored exactly rather than
// quantized to a polling interval.
func (cl *Cluster) WaitOutcome(txn types.TxnID, deadline time.Duration) types.Outcome {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		note := cl.watchOutcome(txn)
		if agg, settled := cl.outcomeSnapshot(txn); settled {
			cl.unwatchOutcome(txn, note)
			return agg
		}
		select {
		case <-note.ch:
			cl.unwatchOutcome(txn, note)
		case <-timer.C:
			cl.unwatchOutcome(txn, note)
			agg, _ := cl.outcomeSnapshot(txn)
			return agg
		}
	}
}

// Violated reports whether any transaction terminated inconsistently.
func (cl *Cluster) Violated(txn types.TxnID) bool {
	committed, aborted := false, false
	for id := range cl.nodes {
		switch cl.OutcomeAt(id, txn) {
		case types.OutcomeCommitted:
			committed = true
		case types.OutcomeAborted:
			aborted = true
		}
	}
	return committed && aborted
}

// Stop shuts down all node goroutines.
func (cl *Cluster) Stop() {
	for _, n := range cl.nodes {
		n.post(event{stop: true})
	}
	cl.wg.Wait()
	cl.tr.Close()
}

// Strategy returns the cluster's access strategy.
func (cl *Cluster) Strategy() voting.Strategy { return cl.cfg.Strategy }

// Tracker returns the access-strategy tracker: item modes, missing writes,
// vote tables and their transition counters.
func (cl *Cluster) Tracker() *voting.Tracker { return cl.tracker }

// clusterPeers is the Cluster seen as the tracker's view of the sites: the
// transport's topology, and every node's store and lock table (both
// mutex-guarded, so peeking across node goroutines is safe).
type clusterPeers Cluster

func (p *clusterPeers) Reachable(from, to types.SiteID) bool { return p.tr.Connected(from, to) }

func (p *clusterPeers) Version(site types.SiteID, item types.ItemID) uint64 {
	v, err := p.nodes[site].store.Read(item)
	if err != nil {
		return 0
	}
	return v.Version
}

// WillApply: the site's store already carries txn's version (applied
// concurrently; a kernel's outcome table belongs to its own goroutine), or
// the site still holds txn's X lock on item.
func (p *clusterPeers) WillApply(site types.SiteID, txn types.TxnID, item types.ItemID) bool {
	n := p.nodes[site]
	if v, err := n.store.Read(item); err == nil && v.Version >= uint64(txn)+1 {
		return true
	}
	return n.locks.LockedBy(txn, item)
}
