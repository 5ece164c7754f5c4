package lockmgr

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"qcommit/internal/obs"
	"qcommit/internal/types"
)

// refTable is the lock table as it was before the per-transaction index: one
// map of lock states and nothing else, so ReleaseAll, HeldItems and HeldCount
// find a transaction's locks by walking all of it.
type refTable struct {
	locks map[types.ItemID]*refLock
}

type refLock struct {
	mode    Mode
	holders map[types.TxnID]int
}

func newRefTable() *refTable { return &refTable{locks: make(map[types.ItemID]*refLock)} }

// tryAcquire models TryAcquire and reports whether it grants.
func (r *refTable) tryAcquire(txn types.TxnID, item types.ItemID, mode Mode) bool {
	ls := r.locks[item]
	if ls == nil {
		ls = &refLock{holders: make(map[types.TxnID]int)}
		r.locks[item] = ls
	}
	if len(ls.holders) == 0 {
		ls.mode = mode
		ls.holders[txn] = 1
		return true
	}
	if _, holds := ls.holders[txn]; holds {
		if mode == Exclusive && ls.mode == Shared {
			if len(ls.holders) > 1 {
				return false
			}
			ls.mode = Exclusive
		}
		ls.holders[txn]++
		return true
	}
	if compatible(ls.mode, mode) {
		ls.holders[txn] = 1
		return true
	}
	return false
}

func (r *refTable) release(txn types.TxnID, item types.ItemID) {
	ls := r.locks[item]
	if ls == nil {
		return
	}
	if cnt, ok := ls.holders[txn]; ok && cnt > 1 {
		ls.holders[txn] = cnt - 1
	} else {
		delete(ls.holders, txn)
	}
}

// releaseAll walks the whole table, as the manager used to.
func (r *refTable) releaseAll(txn types.TxnID) {
	for _, ls := range r.locks {
		delete(ls.holders, txn)
	}
}

func (r *refTable) locked(item types.ItemID) bool {
	ls := r.locks[item]
	return ls != nil && len(ls.holders) > 0
}

func (r *refTable) lockedBy(txn types.TxnID, item types.ItemID) bool {
	ls := r.locks[item]
	if ls == nil {
		return false
	}
	_, ok := ls.holders[txn]
	return ok
}

func (r *refTable) heldItems(txn types.TxnID) []types.ItemID {
	var out []types.ItemID
	for item, ls := range r.locks {
		if _, ok := ls.holders[txn]; ok {
			out = append(out, item)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refTable) heldCount() int64 {
	var n int64
	for _, ls := range r.locks {
		n += int64(len(ls.holders))
	}
	return n
}

// checkIndex verifies the package comment's invariant on every shard: index
// and table describe the same holds.
func checkIndex(m *Manager) error {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		err := func() error {
			holds := 0
			for txn, tl := range sh.byTxn {
				if len(tl.held) == 0 {
					return fmt.Errorf("shard %d: empty index entry for %s", i, txn)
				}
				seen := make(map[*lockState]bool)
				for _, ls := range tl.held {
					if _, ok := ls.holders[txn]; !ok || seen[ls] || sh.locks[ls.item] != ls {
						return fmt.Errorf("shard %d: index says %s holds %s, table disagrees", i, txn, ls.item)
					}
					seen[ls] = true
				}
				holds += len(tl.held)
			}
			for item, ls := range sh.locks {
				holds -= len(ls.holders)
				if ls.item != item {
					return fmt.Errorf("shard %d: lock state of %s is labelled %s", i, item, ls.item)
				}
			}
			if holds != 0 {
				return fmt.Errorf("shard %d: table has %d holds the index lacks", i, -holds)
			}
			return nil
		}()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// indexEntries counts index entries over all shards.
func indexEntries(m *Manager) int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.byTxn)
		sh.mu.Unlock()
	}
	return n
}

// diffDriver runs one seeded operation stream against a manager and the
// reference side by side. Its transactions and items are its own, so several
// drivers can share one manager.
type diffDriver struct {
	m     *Manager
	ref   *refTable
	rng   *rand.Rand
	txns  []types.TxnID
	items []types.ItemID
	// alone is set when no other driver shares the manager, which makes
	// HeldCount and the index comparable after every step.
	alone bool
}

func newDiffDriver(m *Manager, seed int64, id, nTxns, nItems int, alone bool) *diffDriver {
	d := &diffDriver{m: m, ref: newRefTable(), rng: rand.New(rand.NewSource(seed)), alone: alone}
	for i := 0; i < nTxns; i++ {
		d.txns = append(d.txns, types.TxnID(id*1000+i+1))
	}
	for i := 0; i < nItems; i++ {
		d.items = append(d.items, types.ItemID(fmt.Sprintf("d%d/item%d", id, i)))
	}
	return d
}

// step performs one random operation on both sides and compares.
func (d *diffDriver) step() error {
	txn := d.txns[d.rng.Intn(len(d.txns))]
	item := d.items[d.rng.Intn(len(d.items))]
	mode := Shared
	if d.rng.Intn(3) > 0 {
		mode = Exclusive
	}
	switch op := d.rng.Intn(10); {
	case op < 6:
		want := d.ref.tryAcquire(txn, item, mode)
		err := d.m.TryAcquire(txn, item, mode)
		if (err == nil) != want || (err != nil && !errors.Is(err, ErrWouldBlock)) {
			return fmt.Errorf("TryAcquire(%s,%s,%s) = %v, reference grants: %v", txn, item, mode, err, want)
		}
	case op < 8:
		d.ref.release(txn, item)
		d.m.Release(txn, item)
	default:
		if err := d.releaseAll(txn); err != nil {
			return err
		}
	}
	return d.compare()
}

func (d *diffDriver) releaseAll(txn types.TxnID) error {
	d.ref.releaseAll(txn)
	d.m.ReleaseAll(txn)
	if got := d.m.HeldItems(txn); got != nil {
		return fmt.Errorf("HeldItems(%s) = %v after ReleaseAll, want nil", txn, got)
	}
	return nil
}

// compare checks every observable of the driver's own universe.
func (d *diffDriver) compare() error {
	for _, item := range d.items {
		if got, want := d.m.Locked(item), d.ref.locked(item); got != want {
			return fmt.Errorf("Locked(%s) = %v, reference %v", item, got, want)
		}
		for _, txn := range d.txns {
			if got, want := d.m.LockedBy(txn, item), d.ref.lockedBy(txn, item); got != want {
				return fmt.Errorf("LockedBy(%s,%s) = %v, reference %v", txn, item, got, want)
			}
		}
	}
	for _, txn := range d.txns {
		if got, want := d.m.HeldItems(txn), d.ref.heldItems(txn); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("HeldItems(%s) = %v, reference %v", txn, got, want)
		}
	}
	if d.alone {
		if got, want := d.m.HeldCount(), d.ref.heldCount(); got != want {
			return fmt.Errorf("HeldCount() = %d, reference %d", got, want)
		}
		return checkIndex(d.m)
	}
	return nil
}

// drain aborts every transaction of the driver.
func (d *diffDriver) drain() error {
	for _, txn := range d.txns {
		if err := d.releaseAll(txn); err != nil {
			return err
		}
	}
	return d.compare()
}

// TestDifferentialAgainstTableScan drives seeded streams of TryAcquire,
// Release and ReleaseAll against the indexed manager and the
// table-scanning reference, comparing every observable after every step.
func TestDifferentialAgainstTableScan(t *testing.T) {
	for _, shards := range []int{1, DefaultShards} {
		for seed := int64(1); seed <= 4; seed++ {
			m := NewSharded(1, shards)
			d := newDiffDriver(m, seed, 0, 6, 8, true)
			for i := 0; i < 3000; i++ {
				if err := d.step(); err != nil {
					t.Fatalf("shards=%d seed=%d step %d: %v", shards, seed, i, err)
				}
			}
			if err := d.drain(); err != nil {
				t.Fatalf("shards=%d seed=%d drain: %v", shards, seed, err)
			}
			if m.HeldCount() != 0 || indexEntries(m) != 0 {
				t.Fatalf("shards=%d seed=%d: HeldCount=%d, %d index entries after draining", shards, seed, m.HeldCount(), indexEntries(m))
			}
		}
	}
}

// TestDifferentialConcurrent runs several such streams at once on one
// manager: each owns its transactions and items, so each still matches its
// own reference step by step, while the shards and their indexes are
// shared and contended (run under -race).
func TestDifferentialConcurrent(t *testing.T) {
	const drivers = 4
	m := New(1)
	ds := make([]*diffDriver, drivers)
	var wg sync.WaitGroup
	for g := range ds {
		ds[g] = newDiffDriver(m, int64(100+g), g, 5, 6, false)
		wg.Add(1)
		go func(d *diffDriver, g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := d.step(); err != nil {
					t.Errorf("driver %d step %d: %v", g, i, err)
					return
				}
			}
		}(ds[g], g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var want int64
	for _, d := range ds {
		want += d.ref.heldCount()
	}
	if got := m.HeldCount(); got != want {
		t.Errorf("HeldCount() = %d, references sum to %d", got, want)
	}
	if err := checkIndex(m); err != nil {
		t.Error(err)
	}
	for g, d := range ds {
		if err := d.drain(); err != nil {
			t.Fatalf("driver %d drain: %v", g, err)
		}
	}
	if m.HeldCount() != 0 || indexEntries(m) != 0 {
		t.Errorf("HeldCount=%d, %d index entries after draining", m.HeldCount(), indexEntries(m))
	}
}

// TestIndexFollowsEveryReleasePath walks the release paths the live node
// takes — a last Release, the partial-acquire rollback, an S→X upgrade, the
// re-lock after a restart that kept the locks — and requires each to leave
// nothing of the transaction behind.
func TestIndexFollowsEveryReleasePath(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, m *Manager)
	}{
		{"last Release", func(t *testing.T, m *Manager) {
			_ = m.TryAcquire(1, "x", Exclusive)
			_ = m.TryAcquire(1, "x", Exclusive) // re-entrant: two holds
			m.Release(1, "x")
			if !m.LockedBy(1, "x") || !reflect.DeepEqual(m.HeldItems(1), []types.ItemID{"x"}) {
				t.Error("first of two releases let go of x")
			}
			m.Release(1, "x")
		}},
		{"partial-acquire rollback", func(t *testing.T, m *Manager) {
			_ = m.TryAcquire(9, "c", Exclusive) // the conflict
			var taken []types.ItemID
			for _, item := range []types.ItemID{"a", "b", "c"} {
				if err := m.TryAcquire(1, item, Exclusive); err != nil {
					break
				}
				taken = append(taken, item)
			}
			if len(taken) != 2 {
				t.Fatalf("took %v, want a and b", taken)
			}
			for _, item := range taken {
				m.Release(1, item)
			}
			if n := indexEntries(m); n != 1 || m.HeldCount() != 1 {
				t.Errorf("after the rollback: %d index entries, HeldCount %d; want only 9's one", n, m.HeldCount())
			}
			m.ReleaseAll(9)
		}},
		{"upgrade then ReleaseAll", func(t *testing.T, m *Manager) {
			_ = m.TryAcquire(1, "x", Shared)
			if err := m.TryAcquire(1, "x", Exclusive); err != nil {
				t.Fatal(err)
			}
			if got := m.HeldItems(1); len(got) != 1 {
				t.Errorf("HeldItems = %v after upgrade, want x once", got)
			}
			m.ReleaseAll(1)
		}},
		{"re-lock after restart", func(t *testing.T, m *Manager) {
			for round := 0; round < 2; round++ { // vote, then recovery's re-acquire
				for _, item := range []types.ItemID{"a", "b"} {
					if err := m.TryAcquire(1, item, Exclusive); err != nil {
						t.Fatal(err)
					}
				}
			}
			if m.HeldCount() != 2 {
				t.Errorf("HeldCount = %d, want 2", m.HeldCount())
			}
			m.ReleaseAll(1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(1)
			tc.run(t, m)
			if m.HeldCount() != 0 || m.HeldItems(1) != nil || indexEntries(m) != 0 {
				t.Errorf("left behind: HeldCount=%d HeldItems(1)=%v index entries=%d",
					m.HeldCount(), m.HeldItems(1), indexEntries(m))
			}
			if err := checkIndex(m); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAcquireRefusedUpgradeCountsWouldBlock pins that an S→X upgrade refused
// because of a co-holder is counted as a would-block, like any conflict.
func TestAcquireRefusedUpgradeCountsWouldBlock(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(1)
	m.SetMetrics(NewMetrics(reg, 1, m.Shards()))
	_ = m.TryAcquire(1, "x", Shared)
	_ = m.TryAcquire(2, "x", Shared)
	if err := m.TryAcquire(1, "x", Exclusive); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("upgrade with a co-holder = %v, want ErrWouldBlock", err)
	}
	if got := obs.SumCounters(reg.Snapshot(), "qcommit_lock_wouldblock_total"); got != 1 {
		t.Errorf("wouldblock = %d, want 1", got)
	}
}
