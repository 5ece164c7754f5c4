// Package lockmgr implements each site's lock table.
//
// The commit protocols hold an exclusive lock on every local copy written by
// a transaction from the yes vote until the transaction terminates. A blocked
// transaction therefore renders those copies inaccessible — the first of the
// two availability-reduction factors the paper analyzes. The availability
// harness (package avail) asks this table which copies are locked to compute
// per-partition data accessibility.
//
// Locking is strict two-phase and exclusive only: an item has at most one
// holder, and locks are only released at commit or abort.
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
// The table has one owner, the site kernel, and the kernel is its only
// writer. One mutex still guards it, because live.Cluster answers
// voting.Peers.WillApply by reading LockedBy from other nodes' goroutines;
// routing those reads through the owner's event loop would make one node
// wait on another's. The mutex can go when that reader does. HeldCount reads
// an atomic and takes no lock.
//
// A holder's repeated TryAcquire returns nil and changes nothing; one
// Release (or ReleaseAll) drops the hold. The kernel cannot tell this from
// counted re-entrancy: its only repeated acquire is Kernel.Resume re-locking
// over a table that kept its locks, and only ReleaseAll follows that.
//
// Every termination — commit or abort, at every participant — ends in
// ReleaseAll, so its cost follows the transaction, not the table: beside the
// item → holder map the table keeps each transaction's held items in grant
// order, and ReleaseAll and HeldItems walk that list.
package lockmgr

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qcommit/internal/obs"
	"qcommit/internal/types"
)

// Mode is a lock mode. The table has one, Exclusive; TryAcquire keeps the
// parameter so callers name the mode they take.
type Mode uint8

// Exclusive allows a single writer.
const Exclusive Mode = 0

// String implements fmt.Stringer.
func (Mode) String() string { return "X" }

// ErrWouldBlock is returned by TryAcquire when the lock is unavailable.
var ErrWouldBlock = errors.New("lockmgr: lock unavailable")

// grant is one item's hold: its transaction and, when metrics are on, the
// grant time (ns) its hold-time sample is measured from.
type grant struct {
	txn   types.TxnID
	since int64
}

// Metrics carries the lock manager's observability handles. Any nil handle
// (or a nil *Metrics on the manager) records nothing; the zero value costs
// one pointer check per operation.
type Metrics struct {
	// Hold observes the time from a transaction's grant on an item to its
	// release of that item.
	Hold *obs.Histogram
	// WouldBlock counts acquisitions that found the lock taken.
	WouldBlock *obs.Counter
}

// NewMetrics builds (and registers under canonical qcommit_lock_* names,
// labelled by site) the handle set for one site's manager. A nil registry
// yields nil, keeping the whole chain free.
func NewMetrics(reg *obs.Registry, site types.SiteID) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Hold:       reg.Histogram(fmt.Sprintf(`qcommit_lock_hold_ns{site="%d"}`, site), obs.LatencyBounds()),
		WouldBlock: reg.Counter(fmt.Sprintf(`qcommit_lock_wouldblock_total{site="%d"}`, site)),
	}
}

// Manager is a per-site lock table.
type Manager struct {
	mu sync.Mutex
	// locks maps each locked item to its hold, and byTxn each holding
	// transaction to its items in grant order; an item is in locks iff it
	// is in exactly one byTxn list, its holder's. Both maps are made on the
	// first grant: many simulated sites never grant a lock at all.
	locks map[types.ItemID]grant
	byTxn map[types.TxnID][]types.ItemID
	// free keeps the emptied item lists of finished transactions, so a
	// warm table grants without allocating.
	free [][]types.ItemID

	// held counts the items held, so HeldCount can tell an empty table
	// without the mutex — the hybrid churn engine probes every site.
	held atomic.Int64

	met *Metrics // nil: nothing is recorded
}

// SetMetrics installs the manager's observability handles. Call it before
// the manager sees traffic.
func (m *Manager) SetMetrics(mt *Metrics) { m.met = mt }

// New creates a site's lock table. The site names the owner at the call site
// only; metrics carry it through NewMetrics.
func New(_ types.SiteID) *Manager { return new(Manager) }

// NewSharded is New; the shard count is ignored, since the table has one
// owner and no shards.
func NewSharded(site types.SiteID, _ int) *Manager { return New(site) }

// TryAcquire takes item for txn, or returns ErrWouldBlock at once if another
// transaction holds it. The mode is always Exclusive. A repeated acquire by
// the holder succeeds and changes nothing.
func (m *Manager) TryAcquire(txn types.TxnID, item types.ItemID, _ Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if g, ok := m.locks[item]; ok {
		if g.txn == txn {
			return nil
		}
		if m.met != nil {
			m.met.WouldBlock.Inc()
		}
		return ErrWouldBlock
	}
	if m.locks == nil {
		m.locks = make(map[types.ItemID]grant)
		m.byTxn = make(map[types.TxnID][]types.ItemID)
	}
	g := grant{txn: txn}
	if m.met != nil {
		g.since = time.Now().UnixNano()
	}
	m.locks[item] = g
	held, ok := m.byTxn[txn]
	if n := len(m.free); !ok && n > 0 {
		held, m.free = m.free[n-1], m.free[:n-1]
	}
	m.byTxn[txn] = append(held, item)
	m.held.Add(1)
	return nil
}

// dropLocked removes item's hold g from the table (the holder's list is the
// caller's business); runs under m.mu.
func (m *Manager) dropLocked(item types.ItemID, g grant) {
	delete(m.locks, item)
	m.held.Add(-1)
	if m.met != nil && g.since != 0 {
		m.met.Hold.ObserveNS(time.Now().UnixNano() - g.since)
	}
}

// retireLocked forgets txn's emptied item list and keeps its array for a
// later grant; runs under m.mu.
func (m *Manager) retireLocked(txn types.TxnID, held []types.ItemID) {
	delete(m.byTxn, txn)
	clear(held)
	m.free = append(m.free, held[:0])
}

// Release drops txn's hold on item, if it has one.
func (m *Manager) Release(txn types.TxnID, item types.ItemID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.locks[item]
	if !ok || g.txn != txn {
		return
	}
	m.dropLocked(item, g)
	held := m.byTxn[txn]
	i := slices.Index(held, item)
	if held = slices.Delete(held, i, i+1); len(held) == 0 {
		m.retireLocked(txn, held)
	} else {
		m.byTxn[txn] = held
	}
}

// ReleaseAll drops every lock held by txn (commit/abort), in grant order.
// The work is proportional to what txn holds; the table is never walked.
func (m *Manager) ReleaseAll(txn types.TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	held, ok := m.byTxn[txn]
	if !ok {
		return
	}
	for _, item := range held {
		m.dropLocked(item, m.locks[item])
	}
	m.retireLocked(txn, held)
}

// Locked reports whether item is currently locked (by anyone).
func (m *Manager) Locked(item types.ItemID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.locks[item]
	return ok
}

// HeldCount returns the number of items held across the whole table. Zero
// means no lock is held anywhere.
func (m *Manager) HeldCount() int64 { return m.held.Load() }

// LockedBy reports whether txn holds item.
func (m *Manager) LockedBy(txn types.TxnID, item types.ItemID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.locks[item]
	return ok && g.txn == txn
}

// HeldItems returns the items txn currently holds, in ascending order, or
// nil if it holds none.
func (m *Manager) HeldItems(txn types.TxnID) []types.ItemID {
	m.mu.Lock()
	out := slices.Clone(m.byTxn[txn])
	m.mu.Unlock()
	slices.Sort(out)
	return out
}
