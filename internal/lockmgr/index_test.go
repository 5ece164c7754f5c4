package lockmgr

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"qcommit/internal/types"
)

// refTable is the lock table with no per-transaction lists: one map from
// item to holder and nothing else, so ReleaseAll, HeldItems and HeldCount
// find a transaction's locks by walking all of it.
type refTable struct {
	holder map[types.ItemID]types.TxnID
}

func newRefTable() *refTable { return &refTable{holder: make(map[types.ItemID]types.TxnID)} }

// tryAcquire models TryAcquire and reports whether it grants.
func (r *refTable) tryAcquire(txn types.TxnID, item types.ItemID) bool {
	h, ok := r.holder[item]
	if !ok {
		r.holder[item] = txn
		return true
	}
	return h == txn
}

func (r *refTable) release(txn types.TxnID, item types.ItemID) {
	if h, ok := r.holder[item]; ok && h == txn {
		delete(r.holder, item)
	}
}

// releaseAll walks the whole table.
func (r *refTable) releaseAll(txn types.TxnID) {
	for item, h := range r.holder {
		if h == txn {
			delete(r.holder, item)
		}
	}
}

func (r *refTable) locked(item types.ItemID) bool {
	_, ok := r.holder[item]
	return ok
}

func (r *refTable) lockedBy(txn types.TxnID, item types.ItemID) bool {
	h, ok := r.holder[item]
	return ok && h == txn
}

func (r *refTable) heldItems(txn types.TxnID) []types.ItemID {
	var out []types.ItemID
	for item, h := range r.holder {
		if h == txn {
			out = append(out, item)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refTable) heldCount() int64 { return int64(len(r.holder)) }

// checkIndex verifies the Manager's invariant: an item is in locks iff it is
// in exactly one byTxn list, its holder's, and no list is empty.
func checkIndex(m *Manager) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	listed := 0
	for txn, held := range m.byTxn {
		if len(held) == 0 {
			return fmt.Errorf("empty item list for %s", txn)
		}
		for i, item := range held {
			if g, ok := m.locks[item]; !ok || g.txn != txn {
				return fmt.Errorf("list says %s holds %s, table disagrees", txn, item)
			}
			for _, other := range held[:i] {
				if other == item {
					return fmt.Errorf("%s lists %s twice", txn, item)
				}
			}
		}
		listed += len(held)
	}
	if listed != len(m.locks) {
		return fmt.Errorf("table has %d holds, the lists %d", len(m.locks), listed)
	}
	return nil
}

// indexEntries counts the transactions with an item list.
func indexEntries(m *Manager) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byTxn)
}

// diffDriver runs one seeded operation stream against a manager and the
// reference side by side.
type diffDriver struct {
	m     *Manager
	ref   *refTable
	rng   *rand.Rand
	txns  []types.TxnID
	items []types.ItemID
}

func newDiffDriver(m *Manager, seed int64, nTxns, nItems int) *diffDriver {
	d := &diffDriver{m: m, ref: newRefTable(), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < nTxns; i++ {
		d.txns = append(d.txns, types.TxnID(i+1))
	}
	for i := 0; i < nItems; i++ {
		d.items = append(d.items, types.ItemID(fmt.Sprintf("item%d", i)))
	}
	return d
}

// step performs one random operation on both sides and compares.
func (d *diffDriver) step() error {
	txn := d.txns[d.rng.Intn(len(d.txns))]
	item := d.items[d.rng.Intn(len(d.items))]
	switch op := d.rng.Intn(10); {
	case op < 6:
		want := d.ref.tryAcquire(txn, item)
		err := d.m.TryAcquire(txn, item, Exclusive)
		if (err == nil) != want || (err != nil && !errors.Is(err, ErrWouldBlock)) {
			return fmt.Errorf("TryAcquire(%s,%s) = %v, reference grants: %v", txn, item, err, want)
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

// compare checks every observable.
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
	if got, want := d.m.HeldCount(), d.ref.heldCount(); got != want {
		return fmt.Errorf("HeldCount() = %d, reference %d", got, want)
	}
	return checkIndex(d.m)
}

// drain aborts every transaction of the driver and checks that nothing is
// left behind.
func (d *diffDriver) drain() error {
	for _, txn := range d.txns {
		if err := d.releaseAll(txn); err != nil {
			return err
		}
	}
	if err := d.compare(); err != nil {
		return err
	}
	if d.m.HeldCount() != 0 || indexEntries(d.m) != 0 {
		return fmt.Errorf("HeldCount=%d, %d item lists after draining", d.m.HeldCount(), indexEntries(d.m))
	}
	return nil
}

// TestDifferentialAgainstTableScan drives seeded streams of TryAcquire,
// Release and ReleaseAll against the manager and the table-scanning
// reference, comparing every observable after every step.
func TestDifferentialAgainstTableScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		d := newDiffDriver(New(1), seed, 6, 8)
		for i := 0; i < 3000; i++ {
			if err := d.step(); err != nil {
				t.Fatalf("seed=%d step %d: %v", seed, i, err)
			}
		}
		if err := d.drain(); err != nil {
			t.Fatalf("seed=%d drain: %v", seed, err)
		}
	}
}

// TestDifferentialConcurrent is the production pattern (run it under -race):
// one owner takes and releases locks, matching the reference after every
// step, while other goroutines read LockedBy, Locked and HeldCount, as
// live.Cluster's WillApply does from other nodes.
func TestDifferentialConcurrent(t *testing.T) {
	const readers = 3
	m := New(1)
	d := newDiffDriver(m, 100, 5, 6)
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for reads := 0; !done.Load() || reads < 100; reads++ {
				item := d.items[rng.Intn(len(d.items))]
				_ = m.LockedBy(d.txns[rng.Intn(len(d.txns))], item)
				_ = m.Locked(item)
				if n := m.HeldCount(); n < 0 || n > int64(len(d.items)) {
					t.Errorf("reader %d: HeldCount() = %d, outside [0, %d]", g, n, len(d.items))
					return
				}
			}
		}(g)
	}
	for i := 0; i < 4000; i++ {
		if err := d.step(); err != nil {
			t.Errorf("step %d: %v", i, err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := d.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestIndexFollowsEveryReleasePath walks the release paths the site kernel
// takes — a Release after a repeated acquire, the partial-acquire rollback,
// the re-lock after a restart that kept the locks — and requires each to
// leave nothing of the transaction behind.
func TestIndexFollowsEveryReleasePath(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, m *Manager)
	}{
		{"last Release", func(t *testing.T, m *Manager) {
			_ = m.TryAcquire(1, "x", Exclusive)
			_ = m.TryAcquire(1, "x", Exclusive) // repeated: still one hold
			if !reflect.DeepEqual(m.HeldItems(1), []types.ItemID{"x"}) {
				t.Errorf("HeldItems = %v after a repeated acquire, want x once", m.HeldItems(1))
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
				t.Errorf("after the rollback: %d item lists, HeldCount %d; want only 9's one", n, m.HeldCount())
			}
			m.ReleaseAll(9)
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
				t.Errorf("left behind: HeldCount=%d HeldItems(1)=%v item lists=%d",
					m.HeldCount(), m.HeldItems(1), indexEntries(m))
			}
			if err := checkIndex(m); err != nil {
				t.Error(err)
			}
		})
	}
}
