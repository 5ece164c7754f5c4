// Package lockmgr implements each site's lock table.
//
// The commit protocols hold exclusive locks on every local copy written by a
// transaction from the yes vote until the transaction terminates. A blocked
// transaction therefore renders those copies inaccessible — the first of the
// two availability-reduction factors the paper analyzes. The availability
// harness (package avail) asks this table which copies are locked to compute
// per-partition data accessibility.
//
// Locking is strict two-phase: locks are only released at commit or abort.
// Shared (read) and exclusive (write) modes are supported.
//
// The table never makes a caller wait, and it has exactly one conflict
// policy, the paper's: a participant that cannot lock every local copy it
// is asked to write votes no. site.Kernel.lockCopies implements it — one
// TryAcquire per copy, and on the first ErrWouldBlock a Release of what it
// took. Nobody waits for a lock, so nothing can deadlock: there are no wait
// queues, no waits-for graph and no detector. A waiting policy such as
// wound-wait would live in the single-threaded site kernel and grant a
// queued lock as a kernel event; it would not park a goroutine here.
//
// The table is sharded by item hash, each shard under its own mutex. The
// kernel that takes and releases locks is single-threaded, but the mutexes
// stay: live.Cluster answers voting.Peers.WillApply by reading LockedBy from
// other nodes' goroutines. Every method holds at most one shard mutex at a
// time, so there is no lock order to keep.
//
// Every termination — commit or abort, at every participant — ends in
// ReleaseAll, so its cost must follow the transaction, not the table. Each
// shard therefore keeps a per-transaction index next to its lock table.
// The invariant, which holds whenever the shard mutex is free: txn has an
// index entry in a shard iff it holds one of that shard's items, and the
// entry names exactly the lock states whose holders contain txn, once each,
// in the order they were granted. Every grant and release updates table and
// index in the same critical section of the shard mutex. ReleaseAll and
// HeldItems read the index and never walk the table; ReleaseAll releases in
// acquisition order within a shard, shards in index order.
package lockmgr

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
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

// ErrWouldBlock is returned by TryAcquire when the lock is unavailable.
var ErrWouldBlock = errors.New("lockmgr: lock unavailable")

// holder is one transaction's hold on an item and its re-entrancy count.
type holder struct {
	txn   types.TxnID
	count int
}

// lockState is one item's entry in the lock table. holders lists each
// holding transaction once, in grant order; it starts on the inline array,
// since an item almost always has at most one holder (an exclusive lock), so
// a state costs one allocation until a second shared holder joins.
type lockState struct {
	item    types.ItemID
	mode    Mode
	holders []holder
	one     [1]holder
	since   map[types.TxnID]int64 // grant timestamps (ns); nil unless metrics are on
}

// holderOf returns the index of txn's hold in ls.holders, or -1.
func (ls *lockState) holderOf(txn types.TxnID) int {
	for i, h := range ls.holders {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

// txnLocks is one transaction's footprint in one shard (see the package
// comment for the invariant).
type txnLocks struct {
	held []*lockState  // in grant order
	buf  [2]*lockState // held's first backing array: one allocation per entry
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

// Metrics carries the lock manager's observability handles. Hold is indexed
// by shard — contention is a per-shard phenomenon under the hashed table, so
// that is the granularity profile hunts need. Any nil handle (or a nil
// *Metrics on the manager) records nothing; the zero value costs one pointer
// check per operation.
type Metrics struct {
	// Hold observes, per shard, the time from a transaction's grant on an
	// item to its final release of that item.
	Hold []*obs.Histogram
	// WouldBlock counts acquisitions that found the lock taken.
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
		WouldBlock: reg.Counter(fmt.Sprintf(`qcommit_lock_wouldblock_total{site="%d"}`, site)),
	}
	for i := 0; i < shards; i++ {
		m.Hold = append(m.Hold, reg.Histogram(fmt.Sprintf(`qcommit_lock_hold_ns{site="%d",shard="%d"}`, site, i), obs.LatencyBounds()))
	}
	return m
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

// DefaultShards is the shard count New uses.
const DefaultShards = 16

// hashSeed is shared by every manager so equal items always land in the
// same shard index regardless of which manager hashes them.
var hashSeed = maphash.MakeSeed()

// Manager is a per-site lock table.
type Manager struct {
	shards []shard

	// held counts (txn, item) holder entries across all shards, maintained
	// at every grant and release. HeldCount lets callers skip per-item
	// probes when the whole table is empty — the common case for the
	// hybrid churn engine's classification probe.
	held atomic.Int64

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
// reproduces the historical single-mutex table. The site names the owner at
// the call site only; metrics carry it through NewMetrics.
func NewSharded(_ types.SiteID, shards int) *Manager {
	if shards <= 0 {
		shards = DefaultShards
	}
	m := &Manager{shards: make([]shard, shards)}
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

// grantLocked grants txn the lock on item if it is free, txn already holds
// it (re-entrant; S→X only as the sole holder), or the mode is compatible
// with the holders'. It reports whether the grant happened; runs under sh.mu.
func (m *Manager) grantLocked(sh *shard, txn types.TxnID, item types.ItemID, mode Mode) bool {
	ls := sh.locks[item]
	if ls == nil {
		if sh.locks == nil {
			sh.locks = make(map[types.ItemID]*lockState)
		}
		ls = &lockState{item: item}
		ls.holders = ls.one[:0]
		sh.locks[item] = ls
	}
	if i := ls.holderOf(txn); i >= 0 {
		if mode == Exclusive && ls.mode == Shared {
			if len(ls.holders) > 1 {
				return false
			}
			ls.mode = Exclusive
		}
		ls.holders[i].count++
		return true
	}
	switch {
	case len(ls.holders) == 0:
		ls.mode = mode
	case compatible(ls.mode, mode):
	default:
		return false
	}
	ls.holders = append(ls.holders, holder{txn: txn, count: 1})
	tl := sh.entryLocked(txn)
	tl.held = append(tl.held, ls)
	m.held.Add(1)
	m.noteGrantLocked(ls, txn)
	return true
}

// TryAcquire takes item in the given mode, or returns ErrWouldBlock at once
// if another transaction's hold conflicts. Re-entrant acquisition by the
// same transaction succeeds; upgrading S→X succeeds only if the transaction
// is the sole holder.
func (m *Manager) TryAcquire(txn types.TxnID, item types.ItemID, mode Mode) error {
	sh := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if m.grantLocked(sh, txn, item, mode) {
		return nil
	}
	m.met.wouldBlock()
	return ErrWouldBlock
}

// Release drops one hold of txn on item.
func (m *Manager) Release(txn types.TxnID, item types.ItemID) {
	sh := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.locks[item]
	if ls == nil {
		return
	}
	if i := ls.holderOf(txn); i >= 0 {
		if ls.holders[i].count > 1 {
			ls.holders[i].count--
			return
		}
		tl := sh.byTxn[txn]
		if tl.held = without(tl.held, ls); len(tl.held) == 0 {
			delete(sh.byTxn, txn)
		}
		m.dropHolderLocked(sh, ls, txn)
	}
}

// dropHolderLocked removes txn from ls's holders (the index is the caller's
// business); runs under sh.mu.
func (m *Manager) dropHolderLocked(sh *shard, ls *lockState, txn types.TxnID) {
	if i := ls.holderOf(txn); i >= 0 {
		ls.holders = slices.Delete(ls.holders, i, i+1)
	}
	m.held.Add(-1)
	m.noteReleaseLocked(sh, ls, txn)
}

// ReleaseAll drops every lock held by txn (commit/abort). The work is
// proportional to what txn holds: each shard is asked for txn's index entry,
// the table is never walked.
func (m *Manager) ReleaseAll(txn types.TxnID) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		if tl := sh.byTxn[txn]; tl != nil {
			for _, ls := range tl.held {
				m.dropHolderLocked(sh, ls, txn)
			}
			delete(sh.byTxn, txn)
		}
		sh.mu.Unlock()
	}
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
	return ls != nil && ls.holderOf(txn) >= 0
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
