// Package lockmgr implements each site's lock manager.
//
// The commit protocols hold exclusive locks on every local copy written by a
// transaction from the yes vote until the transaction terminates. A blocked
// transaction therefore renders those copies inaccessible — the first of the
// two availability-reduction factors the paper analyzes. The availability
// harness (package avail) asks this lock manager which copies are locked to
// compute per-partition data accessibility.
//
// Locking is strict two-phase: locks are only released at commit or abort.
// Shared (read) and exclusive (write) modes are supported, with FIFO waiting
// and waits-for-graph deadlock detection.
//
// The lock table is sharded by item hash so independent transactions touching
// different items never serialize on one mutex; each shard has its own lock
// and per-item FIFO queues, while the waits-for graph stays global (guarded
// by its own mutex) so deadlock cycles spanning shards are still detected —
// edge insertion and the cycle check happen in one critical section of the
// graph mutex, which serializes the checks exactly as the old single mutex
// did.
//
// Every termination — commit or abort, at every participant — ends in
// ReleaseAll, so its cost must follow the transaction, not the table. Each
// shard therefore keeps a per-transaction index next to its lock table.
// The invariant, which holds whenever the shard mutex is free: txn has an
// index entry in a shard iff it holds or has a request queued on one of that
// shard's items; the entry's held list names exactly the lock states whose
// holders contain txn, once each, in the order they were granted, and its
// queued list exactly the lock states whose queue carries a request of txn.
// Every grant, release, enqueue and wake updates table and index in the same
// critical section of the shard mutex. ReleaseAll, HeldItems and the
// withdrawal of queued requests read the index and never walk the table;
// ReleaseAll releases in acquisition order within a shard, shards in index
// order. The index adds no lock: the order stays shard → graph.
package lockmgr

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qcommit/internal/obs"
	"qcommit/internal/types"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	// Shared allows concurrent readers.
	Shared Mode = iota
	// Exclusive allows a single writer.
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// compatible reports whether a new request of mode b can join holders of
// mode a.
func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Lock manager errors.
var (
	// ErrDeadlock is returned when granting the request would close a cycle
	// in the waits-for graph.
	ErrDeadlock = errors.New("lockmgr: deadlock detected")
	// ErrWouldBlock is returned by TryAcquire when the lock is unavailable.
	ErrWouldBlock = errors.New("lockmgr: lock unavailable")
)

type request struct {
	txn   types.TxnID
	mode  Mode
	grant chan error
}

type lockState struct {
	item    types.ItemID
	mode    Mode
	holders map[types.TxnID]int // re-entrancy count
	queue   []*request
	since   map[types.TxnID]int64 // grant timestamps (ns); nil unless metrics are on
}

// txnLocks is one transaction's footprint in one shard (see the package
// comment for the invariant).
type txnLocks struct {
	held   []*lockState // in grant order
	queued []*lockState
	buf    [2]*lockState // held's first backing array: one allocation per entry
}

// shard is one slice of the lock table: its own mutex, its own items, and
// the per-transaction index over them.
type shard struct {
	idx   int
	mu    sync.Mutex
	locks map[types.ItemID]*lockState
	byTxn map[types.TxnID]*txnLocks
}

// entryLocked returns txn's index entry, creating it; runs under sh.mu.
func (sh *shard) entryLocked(txn types.TxnID) *txnLocks {
	tl := sh.byTxn[txn]
	if tl != nil {
		return tl
	}
	tl = new(txnLocks)
	tl.held = tl.buf[:0]
	if sh.byTxn == nil {
		sh.byTxn = make(map[types.TxnID]*txnLocks)
	}
	sh.byTxn[txn] = tl
	return tl
}

// without returns list with its first occurrence of ls removed, order kept.
func without(list []*lockState, ls *lockState) []*lockState {
	for i, x := range list {
		if x == ls {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Metrics carries the lock manager's observability handles. Wait and Hold
// are indexed by shard — contention is a per-shard phenomenon under the
// hashed table, so that is the granularity profile hunts need. Any nil
// handle (or a nil *Metrics on the manager) records nothing; the zero value
// costs one pointer check per operation.
type Metrics struct {
	// Wait observes, per shard, how long Acquire calls that actually
	// blocked waited for their grant.
	Wait []*obs.Histogram
	// Hold observes, per shard, the time from a transaction's grant on an
	// item to its final release of that item.
	Hold []*obs.Histogram
	// Deadlocks counts waits refused because they would close a cycle.
	Deadlocks *obs.Counter
	// WouldBlock counts non-blocking acquisitions that found the lock taken.
	WouldBlock *obs.Counter
}

// NewMetrics builds (and registers under canonical qcommit_lock_* names,
// labelled by site and shard) the handle set for a manager with the given
// shard count. A nil registry yields nil, keeping the whole chain free.
func NewMetrics(reg *obs.Registry, site types.SiteID, shards int) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		Deadlocks:  reg.Counter(fmt.Sprintf(`qcommit_lock_deadlocks_total{site="%d"}`, site)),
		WouldBlock: reg.Counter(fmt.Sprintf(`qcommit_lock_wouldblock_total{site="%d"}`, site)),
	}
	for i := 0; i < shards; i++ {
		m.Wait = append(m.Wait, reg.Histogram(fmt.Sprintf(`qcommit_lock_wait_ns{site="%d",shard="%d"}`, site, i), obs.LatencyBounds()))
		m.Hold = append(m.Hold, reg.Histogram(fmt.Sprintf(`qcommit_lock_hold_ns{site="%d",shard="%d"}`, site, i), obs.LatencyBounds()))
	}
	return m
}

// wait returns the shard's wait histogram (nil-safe).
func (mt *Metrics) wait(i int) *obs.Histogram {
	if mt == nil || i >= len(mt.Wait) {
		return nil
	}
	return mt.Wait[i]
}

// hold returns the shard's hold histogram (nil-safe).
func (mt *Metrics) hold(i int) *obs.Histogram {
	if mt == nil || i >= len(mt.Hold) {
		return nil
	}
	return mt.Hold[i]
}

// wouldBlock bumps the would-block counter (nil-safe).
func (mt *Metrics) wouldBlock() {
	if mt != nil {
		mt.WouldBlock.Inc()
	}
}

// deadlock bumps the deadlock counter (nil-safe).
func (mt *Metrics) deadlock() {
	if mt != nil {
		mt.Deadlocks.Inc()
	}
}

// DefaultShards is the shard count New uses.
const DefaultShards = 16

// hashSeed is shared by every manager so equal items always land in the
// same shard index regardless of which manager hashes them.
var hashSeed = maphash.MakeSeed()

// Manager is a per-site lock table.
type Manager struct {
	site   types.SiteID
	shards []shard

	// held counts (txn, item) holder entries across all shards, maintained
	// at every grant and release. HeldCount lets callers skip per-item
	// probes when the whole table is empty — the common case for the
	// hybrid churn engine's classification probe.
	held atomic.Int64

	// graphMu guards waitsFor, the global waits-for relation used for
	// deadlock detection across all shards. Lock order: a shard's mu may be
	// held while taking graphMu, never the reverse.
	graphMu sync.Mutex
	// waitsFor[t] = set of transactions t waits for.
	waitsFor map[types.TxnID]map[types.TxnID]bool

	// met is the optional observability handle set; nil means every
	// recording below is a single pointer check.
	met *Metrics
}

// SetMetrics installs the manager's observability handles. Call it before
// the manager sees traffic; operations in flight during the swap may record
// into either handle set.
func (m *Manager) SetMetrics(mt *Metrics) { m.met = mt }

// New creates a lock manager for a site with DefaultShards shards.
func New(site types.SiteID) *Manager { return NewSharded(site, DefaultShards) }

// NewSharded creates a lock manager with an explicit shard count; shards=1
// reproduces the historical single-mutex table.
func NewSharded(site types.SiteID, shards int) *Manager {
	if shards <= 0 {
		shards = DefaultShards
	}
	m := &Manager{
		site:     site,
		shards:   make([]shard, shards),
		waitsFor: make(map[types.TxnID]map[types.TxnID]bool),
	}
	for i := range m.shards {
		m.shards[i].idx = i
		// Each shard's lock map is created on first grant: reads of a nil
		// map behave like reads of an empty one, and many simulated sites
		// never grant a lock at all.
	}
	return m
}

// noteGrantLocked stamps txn's grant time on ls for hold-time measurement;
// runs under the shard mutex, no-op without metrics.
func (m *Manager) noteGrantLocked(ls *lockState, txn types.TxnID) {
	if m.met == nil {
		return
	}
	if ls.since == nil {
		ls.since = make(map[types.TxnID]int64)
	}
	ls.since[txn] = time.Now().UnixNano()
}

// noteReleaseLocked observes txn's hold time on ls; runs under the shard
// mutex, no-op without metrics or when the grant predates SetMetrics.
func (m *Manager) noteReleaseLocked(sh *shard, ls *lockState, txn types.TxnID) {
	if m.met == nil || ls.since == nil {
		return
	}
	if t0, ok := ls.since[txn]; ok {
		delete(ls.since, txn)
		m.met.hold(sh.idx).ObserveNS(time.Now().UnixNano() - t0)
	}
}

// Site returns the owning site.
func (m *Manager) Site() types.SiteID { return m.site }

// Shards returns the shard count.
func (m *Manager) Shards() int { return len(m.shards) }

// shardOf returns the shard holding item.
func (m *Manager) shardOf(item types.ItemID) *shard {
	if len(m.shards) == 1 {
		return &m.shards[0]
	}
	h := maphash.String(hashSeed, string(item))
	return &m.shards[h%uint64(len(m.shards))]
}

// grantLocked grants txn the lock on item if that needs no waiting:
// the item is free, txn already holds it (re-entrant; S→X only as the sole
// holder), or the mode is compatible and nobody is queued. It returns the
// item's lock state and whether the grant happened; runs under sh.mu.
func (m *Manager) grantLocked(sh *shard, txn types.TxnID, item types.ItemID, mode Mode) (*lockState, bool) {
	ls := sh.locks[item]
	if ls == nil {
		if sh.locks == nil {
			sh.locks = make(map[types.ItemID]*lockState)
		}
		ls = &lockState{item: item, holders: make(map[types.TxnID]int)}
		sh.locks[item] = ls
	}
	if cnt, holds := ls.holders[txn]; holds {
		if mode == Exclusive && ls.mode == Shared {
			if len(ls.holders) > 1 {
				return ls, false
			}
			ls.mode = Exclusive
		}
		ls.holders[txn] = cnt + 1
		return ls, true
	}
	switch {
	case len(ls.holders) == 0:
		ls.mode = mode
	case compatible(ls.mode, mode) && len(ls.queue) == 0:
	default:
		return ls, false
	}
	m.addHolderLocked(sh, ls, txn)
	return ls, true
}

// addHolderLocked records txn's first hold on ls in table, index, counter
// and hold-time stamps; runs under sh.mu.
func (m *Manager) addHolderLocked(sh *shard, ls *lockState, txn types.TxnID) {
	ls.holders[txn] = 1
	tl := sh.entryLocked(txn)
	tl.held = append(tl.held, ls)
	m.held.Add(1)
	m.noteGrantLocked(ls, txn)
}

// TryAcquire attempts to take item in the given mode without waiting.
// Re-entrant acquisition by the same transaction succeeds; upgrading S→X
// succeeds only if the transaction is the sole holder.
func (m *Manager) TryAcquire(txn types.TxnID, item types.ItemID, mode Mode) error {
	sh := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := m.grantLocked(sh, txn, item, mode); ok {
		return nil
	}
	m.met.wouldBlock()
	return ErrWouldBlock
}

// Acquire takes the lock, blocking until granted. It returns ErrDeadlock if
// waiting would create a waits-for cycle, and ErrWouldBlock for an S→X
// upgrade refused because of co-holders (an upgrade never queues). Intended
// for the live runtime; the deterministic simulator uses TryAcquire.
func (m *Manager) Acquire(txn types.TxnID, item types.ItemID, mode Mode) error {
	sh := m.shardOf(item)
	sh.mu.Lock()
	ls, ok := m.grantLocked(sh, txn, item, mode)
	if ok {
		sh.mu.Unlock()
		return nil
	}
	if _, holds := ls.holders[txn]; holds {
		sh.mu.Unlock()
		m.met.wouldBlock()
		return ErrWouldBlock
	}
	// Must wait: record edges and check for a cycle in one graph critical
	// section, so two transactions racing into a mutual wait from different
	// shards cannot both miss the cycle.
	m.graphMu.Lock()
	for holder := range ls.holders {
		m.addEdgeLocked(txn, holder)
	}
	if m.cycleFromLocked(txn) {
		m.clearEdgesLocked(txn)
		m.graphMu.Unlock()
		sh.mu.Unlock()
		m.met.deadlock()
		return ErrDeadlock
	}
	m.graphMu.Unlock()
	var t0 int64
	if m.met != nil {
		t0 = time.Now().UnixNano()
	}
	req := &request{txn: txn, mode: mode, grant: make(chan error, 1)}
	ls.queue = append(ls.queue, req)
	tl := sh.entryLocked(txn)
	tl.queued = append(tl.queued, ls)
	sh.mu.Unlock()
	err := <-req.grant
	if m.met != nil && err == nil {
		m.met.wait(sh.idx).ObserveNS(time.Now().UnixNano() - t0)
	}
	return err
}

// Release drops one hold of txn on item, waking waiters when it becomes free.
func (m *Manager) Release(txn types.TxnID, item types.ItemID) {
	sh := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.locks[item]
	if ls == nil {
		return
	}
	if cnt, ok := ls.holders[txn]; ok {
		if cnt > 1 {
			ls.holders[txn] = cnt - 1
			return
		}
		tl := sh.byTxn[txn]
		tl.held = without(tl.held, ls)
		if len(tl.held) == 0 && len(tl.queued) == 0 {
			delete(sh.byTxn, txn)
		}
		m.dropHolderLocked(sh, ls, txn)
	}
	m.wakeLocked(sh, ls)
}

// dropHolderLocked removes txn from ls's holders (the index is the caller's
// business); runs under sh.mu.
func (m *Manager) dropHolderLocked(sh *shard, ls *lockState, txn types.TxnID) {
	delete(ls.holders, txn)
	m.held.Add(-1)
	m.noteReleaseLocked(sh, ls, txn)
}

// ReleaseAll drops every lock held by txn and withdraws every request it has
// queued (commit/abort). The work is proportional to what txn holds: each
// shard is asked for txn's index entry, the table is never walked.
func (m *Manager) ReleaseAll(txn types.TxnID) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		if tl := sh.byTxn[txn]; tl != nil {
			// Withdraw first, so no wake below can grant to txn itself.
			for _, ls := range tl.queued {
				for j, req := range ls.queue {
					if req.txn == txn {
						ls.queue = append(ls.queue[:j], ls.queue[j+1:]...)
						//qlint:allow lockheld grant is buffered (cap 1, one send per request lifetime), so this send never blocks
						req.grant <- ErrWouldBlock
						break
					}
				}
			}
			for _, ls := range tl.held {
				m.dropHolderLocked(sh, ls, txn)
				m.wakeLocked(sh, ls)
			}
			delete(sh.byTxn, txn)
		}
		sh.mu.Unlock()
	}
	m.graphMu.Lock()
	m.clearEdgesLocked(txn)
	m.graphMu.Unlock()
}

// Locked reports whether item is currently locked (by anyone).
func (m *Manager) Locked(item types.ItemID) bool {
	sh := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.locks[item]
	return ls != nil && len(ls.holders) > 0
}

// HeldCount returns the number of (transaction, item) holder entries across
// the whole table. Zero means no lock is held anywhere; an Exclusive upgrade
// of a Shared hold still counts once.
func (m *Manager) HeldCount() int64 { return m.held.Load() }

// LockedBy reports whether txn holds item.
func (m *Manager) LockedBy(txn types.TxnID, item types.ItemID) bool {
	sh := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.locks[item]
	if ls == nil {
		return false
	}
	_, ok := ls.holders[txn]
	return ok
}

// HeldItems returns the items txn currently holds, in ascending order.
func (m *Manager) HeldItems(txn types.TxnID) []types.ItemID {
	var out []types.ItemID
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		if tl := sh.byTxn[txn]; tl != nil {
			for _, ls := range tl.held {
				out = append(out, ls.item)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the lock table for debugging.
func (m *Manager) String() string {
	type entry struct {
		mode    Mode
		holders int
	}
	held := make(map[types.ItemID]entry)
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for it, ls := range sh.locks {
			if len(ls.holders) > 0 {
				held[it] = entry{mode: ls.mode, holders: len(ls.holders)}
			}
		}
		sh.mu.Unlock()
	}
	items := make([]types.ItemID, 0, len(held))
	for it := range held {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	s := fmt.Sprintf("locks@%s{", m.site)
	for i, it := range items {
		if i > 0 {
			s += " "
		}
		e := held[it]
		s += fmt.Sprintf("%s:%s×%d", it, e.mode, e.holders)
	}
	return s + "}"
}

// wakeLocked grants ls's queued requests that have become compatible, in
// FIFO order. It runs under sh.mu and takes graphMu to clear the woken
// waiters' edges (shard→graph is the one permitted lock order).
func (m *Manager) wakeLocked(sh *shard, ls *lockState) {
	for len(ls.queue) > 0 {
		head := ls.queue[0]
		if len(ls.holders) == 0 {
			ls.mode = head.mode
		} else if !compatible(ls.mode, head.mode) {
			break
		}
		ls.queue = ls.queue[1:]
		tl := sh.byTxn[head.txn]
		tl.queued = without(tl.queued, ls)
		m.addHolderLocked(sh, ls, head.txn)
		m.clearEdges(head.txn)
		head.grant <- nil
	}
}

func (m *Manager) clearEdges(txn types.TxnID) {
	m.graphMu.Lock()
	m.clearEdgesLocked(txn)
	m.graphMu.Unlock()
}

// addEdgeLocked runs under graphMu.
func (m *Manager) addEdgeLocked(from, to types.TxnID) {
	if from == to {
		return
	}
	set := m.waitsFor[from]
	if set == nil {
		set = make(map[types.TxnID]bool)
		m.waitsFor[from] = set
	}
	set[to] = true
}

// clearEdgesLocked runs under graphMu.
func (m *Manager) clearEdgesLocked(txn types.TxnID) {
	delete(m.waitsFor, txn)
}

// cycleFromLocked reports whether txn can reach itself in the waits-for
// graph; runs under graphMu.
func (m *Manager) cycleFromLocked(start types.TxnID) bool {
	seen := make(map[types.TxnID]bool)
	var stack []types.TxnID
	for t := range m.waitsFor[start] {
		stack = append(stack, t)
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t == start {
			return true
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		for next := range m.waitsFor[t] {
			stack = append(stack, next)
		}
	}
	return false
}
