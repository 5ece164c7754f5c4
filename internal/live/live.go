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

	"qcommit/internal/core"
	"qcommit/internal/msg"
	"qcommit/internal/obs"
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
	// Spec is the commit+termination protocol (the zero Spec is QC1). New
	// panics if it fails Validate.
	Spec core.Spec
	// MinDelay/MaxDelay bound simulated propagation delay (wall clock).
	// Defaults 200µs–2ms, keeping 3T timeouts test-friendly.
	MinDelay, MaxDelay time.Duration
	// TimeoutBase is the protocol timeout unit T. Unlike the deterministic
	// simulator, wall-clock runs pay goroutine scheduling and marshalling
	// overhead on top of propagation delay, so T needs headroom; zero
	// defaults to 4× the larger delay bound, and New panics on a negative T.
	TimeoutBase time.Duration
	// Seed drives the delay randomness.
	Seed int64
	// Transport optionally supplies the message fabric serving every site.
	// Nil builds the in-process fabric from MinDelay/MaxDelay/Seed — the
	// historical mailbox path. A tcp.Fabric here runs the same cluster over
	// real loopback sockets. The cluster takes ownership and closes the
	// transport on Stop.
	Transport transport.Transport
	// WAL optionally supplies each site's log, which must be a
	// wal.AsyncLog, as every log in this module is (nil sites fall back to
	// a fresh MemLog, whose tickets are durable on return). A node's
	// durability-gated sends and outcome publications are released by a
	// flusher goroutine once the log's force lands — at once on a MemLog,
	// after the group fsync on a wal.GroupLog — so the event loop keeps
	// processing other transactions while a batch is being forced. The
	// caller retains ownership and closes the logs after Stop.
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

// hostCore is what a Node needs from the runtime that hosts it: the
// protocol configuration, a clock anchor, a way to send and a way to wake
// outcome waiters. Two hosts embed it: Cluster runs every site of an
// assignment in one process over a shared transport, and Server runs exactly
// one site — the qcommitd deployment shape, where each peer site lives in its
// own process and only the transport connects them. A Node holds nothing of
// its host beyond this, so it cannot grow a dependency on cluster-global
// shared memory that a distributed host cannot provide. The one thing that
// does read other sites' memory — the adaptive access strategies'
// bookkeeping — is a voting.Tracker handed to newNode, which a Cluster builds
// over its nodes and a Server leaves nil.
type hostCore struct {
	spec  core.Spec
	asgn  *voting.Assignment
	t     time.Duration // the protocol timeout unit T
	start time.Time     // anchors the host's monotonic protocol clock

	// tr is the message fabric. All routing policy — propagation delay,
	// partition and crash filtering, the wire-codec round-trip — lives
	// behind it; the host only posts inbound envelopes to node mailboxes
	// and consults the transport's topology view.
	tr transport.Transport

	// noteMu guards notes, the per-transaction outcome watch channels
	// behind WaitOutcome: every local decision (and, on a Cluster, every
	// crash or restart, which changes the up-site set the aggregate is taken
	// over) closes the transaction's current channel, so waiters
	// re-evaluate immediately instead of sleep-polling. Each note counts its
	// waiters, and the last waiter out removes an unnotified entry — a
	// long-lived host must not accumulate one map entry per transaction
	// ever waited on.
	noteMu sync.Mutex
	notes  map[types.TxnID]*outcomeNote
}

// outcomeNote is one transaction's outcome watch: the broadcast channel and
// the number of waitOutcome loops currently holding it.
type outcomeNote struct {
	ch      chan struct{}
	waiters int
}

// send routes a message through the transport, which applies delay,
// loss-on-partition and the wire-codec round-trip.
func (h *hostCore) send(from, to types.SiteID, m msg.Message) {
	h.tr.Send(msg.Envelope{From: from, To: to, Msg: m})
}

// notifyOutcome wakes the waiters watching txn.
func (h *hostCore) notifyOutcome(txn types.TxnID) {
	h.noteMu.Lock()
	if note, ok := h.notes[txn]; ok {
		close(note.ch)
		delete(h.notes, txn)
	}
	h.noteMu.Unlock()
}

// notifyAllOutcomes wakes every waiter (crash/restart changed the up set).
func (h *hostCore) notifyAllOutcomes() {
	h.noteMu.Lock()
	for txn, note := range h.notes {
		close(note.ch)
		delete(h.notes, txn)
	}
	h.noteMu.Unlock()
}

// waitOutcome blocks until snapshot reports txn settled, or the deadline
// passes, and returns snapshot's outcome at that point. The loop registers
// on txn's note BEFORE taking the snapshot, so an outcome landing between
// the two still wakes it: waiters observe the outcome as soon as it is
// published, and the deadline is honored exactly rather than quantized to a
// polling interval.
func (h *hostCore) waitOutcome(txn types.TxnID, deadline time.Duration, snapshot func(types.TxnID) (types.Outcome, bool)) types.Outcome {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		h.noteMu.Lock()
		note := h.notes[txn]
		if note == nil {
			note = &outcomeNote{ch: make(chan struct{})}
			h.notes[txn] = note
		}
		note.waiters++
		h.noteMu.Unlock()
		o, settled := snapshot(txn)
		if !settled {
			select {
			case <-note.ch:
			case <-timer.C:
				o, _ = snapshot(txn)
				settled = true
			}
		}
		// The last waiter out removes the entry if no notification
		// consumed it already.
		h.noteMu.Lock()
		note.waiters--
		if note.waiters == 0 && h.notes[txn] == note {
			delete(h.notes, txn)
		}
		h.noteMu.Unlock()
		if settled {
			return o
		}
	}
}

// Cluster is a set of live site goroutines.
type Cluster struct {
	hostCore
	cfg Config

	mu      sync.Mutex // guards nextTxn
	nextTxn types.TxnID

	nodes map[types.SiteID]*Node
	wg    sync.WaitGroup

	// tracker is the access-strategy layer every node's kernel reports
	// applied commits and installed copies to; it sees the nodes through
	// clusterPeers.
	tracker *voting.Tracker
}

// New builds and starts one goroutine per site in the assignment.
func New(cfg Config) *Cluster {
	if err := cfg.Spec.Validate(); err != nil {
		panic(fmt.Sprintf("live: Config.Spec: %v", err))
	}
	if !cfg.Strategy.Valid() {
		panic(fmt.Sprintf("live: invalid Config.Strategy %v", cfg.Strategy))
	}
	if cfg.TimeoutBase < 0 {
		panic(fmt.Sprintf("live: negative Config.TimeoutBase %v", cfg.TimeoutBase))
	}
	if cfg.MinDelay == 0 && cfg.MaxDelay == 0 {
		cfg.MinDelay, cfg.MaxDelay = 200*time.Microsecond, 2*time.Millisecond
	}
	if cfg.TimeoutBase == 0 {
		cfg.TimeoutBase = 4 * max(cfg.MinDelay, cfg.MaxDelay)
	}
	tr := cfg.Transport
	if tr == nil {
		tr = inproc.New(inproc.Options{MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay, Seed: cfg.Seed})
	}
	cl := &Cluster{
		hostCore: hostCore{
			spec: cfg.Spec, asgn: cfg.Assignment, t: cfg.TimeoutBase, start: time.Now(),
			tr: tr, notes: make(map[types.TxnID]*outcomeNote),
		},
		cfg:   cfg,
		nodes: make(map[types.SiteID]*Node),
	}
	cl.tracker = voting.NewTracker(cfg.Assignment, cfg.Strategy, (*clusterPeers)(cl))
	for _, id := range cfg.Assignment.Sites() {
		var log wal.AsyncLog
		if cfg.WAL != nil {
			if l := cfg.WAL(id); l != nil {
				log = l.(wal.AsyncLog)
			}
		}
		cl.nodes[id] = newNode(id, &cl.hostCore, cl.tracker, log, cfg.Obs)
	}
	for _, item := range cfg.Assignment.Items() {
		ic, _ := cfg.Assignment.Item(item)
		for _, cp := range ic.Copies {
			cl.nodes[cp.Site].store.Init(item, 0)
		}
	}
	for _, n := range cl.nodes {
		n.run(&cl.wg)
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
func (cl *Cluster) T() time.Duration { return cl.t }

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
// automaton access stays on the node goroutine. lease asks the node to force
// a LEASE over txn's ID first (Server, whose IDs must survive a restart).
type beginMsg struct {
	txn          types.TxnID
	ws           types.Writeset
	participants []types.SiteID
	lease        bool
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

// OutcomeAt reads txn's fate at one site from its WAL.
func (cl *Cluster) OutcomeAt(id types.SiteID, txn types.TxnID) types.Outcome {
	return walOutcome(cl.nodes[id], txn)
}

// outcomeSnapshot aggregates txn's fate across the up sites right now. It
// is settled once every up site holding state for txn reports a terminal
// outcome: the shared one, or OutcomeSplit if both a commit and an abort are
// among them (terminal records are irrevocable, so a split never heals).
// Otherwise it returns what WaitOutcome should report if the deadline struck
// now: blocked if some site is mid-protocol, else unknown.
func (cl *Cluster) outcomeSnapshot(txn types.TxnID) (types.Outcome, bool) {
	var seen [types.OutcomeBlocked + 1]bool // by one site's outcome
	for id, n := range cl.nodes {
		// The view first: a site without state for txn needs no
		// topology lookup.
		if o := walOutcome(n, txn); o != types.OutcomeUnknown && !cl.tr.Down(id) {
			seen[o] = true
		}
	}
	switch {
	case seen[types.OutcomeCommitted] && seen[types.OutcomeAborted]:
		return types.OutcomeSplit, true
	case seen[types.OutcomeBlocked]:
		return types.OutcomeBlocked, false
	case seen[types.OutcomeCommitted]:
		return types.OutcomeCommitted, true
	case seen[types.OutcomeAborted]:
		return types.OutcomeAborted, true
	}
	return types.OutcomeUnknown, false
}

// WaitOutcome blocks until every up site holding a copy reports a terminal
// outcome for txn, or the deadline passes (returning the aggregate at that
// point: blocked/unknown if not every such site is terminal). Crashed sites
// are excluded — they learn the outcome from their WAL and the termination
// protocol after Restart. Waiters are woken by per-transaction decision
// notifications (and by crash/restart events), so they observe the outcome
// as soon as it lands and the deadline is honored exactly.
//
// A site publishes an outcome only after the event that decided it has
// finished, so when WaitOutcome returns committed, every up copy holder's
// store has the writeset. Up sites that disagree return OutcomeSplit.
func (cl *Cluster) WaitOutcome(txn types.TxnID, deadline time.Duration) types.Outcome {
	return cl.waitOutcome(txn, deadline, cl.outcomeSnapshot)
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
