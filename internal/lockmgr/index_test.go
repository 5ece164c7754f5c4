package lockmgr

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"qcommit/internal/obs"
	"qcommit/internal/types"
)

// refTable is the lock table as it was before the per-transaction index: one
// map of lock states and nothing else, so ReleaseAll, HeldItems and HeldCount
// find a transaction's locks by walking all of it. It is single-threaded and
// never blocks: where the manager would park a goroutine it reports the
// request as queued, and releases report whom they woke.
type refTable struct {
	locks map[types.ItemID]*refLock
}

type refLock struct {
	mode    Mode
	holders map[types.TxnID]int
	queue   []refReq
}

type refReq struct {
	txn  types.TxnID
	mode Mode
}

// refResult is what the reference predicts for one acquisition.
type refResult uint8

const (
	refGranted refResult = iota
	refRefused           // ErrWouldBlock
	refQueued            // Acquire would wait
)

func newRefTable() *refTable { return &refTable{locks: make(map[types.ItemID]*refLock)} }

// acquire models TryAcquire (wait=false) and Acquire (wait=true).
func (r *refTable) acquire(txn types.TxnID, item types.ItemID, mode Mode, wait bool) refResult {
	ls := r.locks[item]
	if ls == nil {
		ls = &refLock{holders: make(map[types.TxnID]int)}
		r.locks[item] = ls
	}
	if len(ls.holders) == 0 {
		ls.mode = mode
		ls.holders[txn] = 1
		return refGranted
	}
	if _, holds := ls.holders[txn]; holds {
		if mode == Exclusive && ls.mode == Shared {
			if len(ls.holders) > 1 {
				return refRefused
			}
			ls.mode = Exclusive
		}
		ls.holders[txn]++
		return refGranted
	}
	if compatible(ls.mode, mode) && len(ls.queue) == 0 {
		ls.holders[txn] = 1
		return refGranted
	}
	if !wait {
		return refRefused
	}
	ls.queue = append(ls.queue, refReq{txn, mode})
	return refQueued
}

// wouldQueue reports whether acquire(…, wait=true) would park the request.
func (r *refTable) wouldQueue(txn types.TxnID, item types.ItemID, mode Mode) bool {
	ls := r.locks[item]
	if ls == nil || len(ls.holders) == 0 {
		return false
	}
	if _, holds := ls.holders[txn]; holds {
		return false
	}
	return !(compatible(ls.mode, mode) && len(ls.queue) == 0)
}

// wake grants the head of item's queue while it is compatible and returns
// the transactions granted.
func (r *refTable) wake(ls *refLock) []types.TxnID {
	var woken []types.TxnID
	for len(ls.queue) > 0 {
		head := ls.queue[0]
		if len(ls.holders) == 0 {
			ls.mode = head.mode
		} else if !compatible(ls.mode, head.mode) {
			break
		}
		ls.queue = ls.queue[1:]
		ls.holders[head.txn] = 1
		woken = append(woken, head.txn)
	}
	return woken
}

func (r *refTable) release(txn types.TxnID, item types.ItemID) []types.TxnID {
	ls := r.locks[item]
	if ls == nil {
		return nil
	}
	if cnt, ok := ls.holders[txn]; ok {
		if cnt > 1 {
			ls.holders[txn] = cnt - 1
			return nil
		}
		delete(ls.holders, txn)
	}
	return r.wake(ls)
}

// releaseAll walks the whole table, as the manager used to. cancelled
// reports whether a queued request of txn was withdrawn.
func (r *refTable) releaseAll(txn types.TxnID) (woken []types.TxnID, cancelled bool) {
	for _, ls := range r.locks {
		if _, ok := ls.holders[txn]; ok {
			delete(ls.holders, txn)
			woken = append(woken, r.wake(ls)...)
		}
		for j, req := range ls.queue {
			if req.txn == txn {
				ls.queue = append(ls.queue[:j], ls.queue[j+1:]...)
				cancelled = true
				break
			}
		}
	}
	return woken, cancelled
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

func (r *refTable) holdsAny(txn types.TxnID) bool { return len(r.heldItems(txn)) > 0 }

// checkIndex verifies the package comment's invariant on every shard: index
// and table describe the same holds and the same queued requests.
func checkIndex(m *Manager) error {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		err := func() error {
			holds, queued := 0, 0
			for txn, tl := range sh.byTxn {
				if len(tl.held) == 0 && len(tl.queued) == 0 {
					return fmt.Errorf("shard %d: empty index entry for %s", i, txn)
				}
				seen := make(map[*lockState]bool)
				for _, ls := range tl.held {
					if _, ok := ls.holders[txn]; !ok || seen[ls] || sh.locks[ls.item] != ls {
						return fmt.Errorf("shard %d: index says %s holds %s, table disagrees", i, txn, ls.item)
					}
					seen[ls] = true
				}
				for _, ls := range tl.queued {
					n := 0
					for _, req := range ls.queue {
						if req.txn == txn {
							n++
						}
					}
					if n == 0 {
						return fmt.Errorf("shard %d: index says %s is queued on %s, table disagrees", i, txn, ls.item)
					}
				}
				holds += len(tl.held)
				queued += len(tl.queued)
			}
			for item, ls := range sh.locks {
				holds -= len(ls.holders)
				queued -= len(ls.queue)
				if ls.item != item {
					return fmt.Errorf("shard %d: lock state of %s is labelled %s", i, item, ls.item)
				}
			}
			if holds != 0 || queued != 0 {
				return fmt.Errorf("shard %d: table has %d holds and %d requests the index lacks", i, -holds, -queued)
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
	// blocked holds the result channel of each transaction parked in Acquire.
	blocked map[types.TxnID]chan error
	// alone is set when no other driver shares the manager, which makes
	// HeldCount and the index comparable after every step.
	alone bool
}

func newDiffDriver(m *Manager, seed int64, id, nTxns, nItems int, alone bool) *diffDriver {
	d := &diffDriver{
		m: m, ref: newRefTable(), rng: rand.New(rand.NewSource(seed)),
		blocked: make(map[types.TxnID]chan error), alone: alone,
	}
	for i := 0; i < nTxns; i++ {
		d.txns = append(d.txns, types.TxnID(id*1000+i+1))
	}
	for i := 0; i < nItems; i++ {
		d.items = append(d.items, types.ItemID(fmt.Sprintf("d%d/item%d", id, i)))
	}
	return d
}

// waitParked blocks until txn's request on item is in the manager's queue.
func (d *diffDriver) waitParked(txn types.TxnID, item types.ItemID) error {
	sh := d.m.shardOf(item)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		sh.mu.Lock()
		parked := false
		if ls := sh.locks[item]; ls != nil {
			for _, req := range ls.queue {
				parked = parked || req.txn == txn
			}
		}
		sh.mu.Unlock()
		if parked {
			return nil
		}
		time.Sleep(50 * time.Microsecond)
	}
	return fmt.Errorf("%s never queued on %s", txn, item)
}

// expectWoken collects the result of every transaction the reference says a
// release woke (nil) or withdrew (ErrWouldBlock).
func (d *diffDriver) expectWoken(txns []types.TxnID, want error) error {
	for _, txn := range txns {
		ch := d.blocked[txn]
		if ch == nil {
			return fmt.Errorf("reference woke %s, which is not parked", txn)
		}
		select {
		case err := <-ch:
			if !errors.Is(err, want) {
				return fmt.Errorf("parked %s returned %v, want %v", txn, err, want)
			}
		case <-time.After(5 * time.Second):
			return fmt.Errorf("parked %s never returned (want %v)", txn, want)
		}
		delete(d.blocked, txn)
	}
	return nil
}

// step performs one random operation on both sides and compares.
func (d *diffDriver) step() error {
	txn := d.txns[d.rng.Intn(len(d.txns))]
	item := d.items[d.rng.Intn(len(d.items))]
	mode := Shared
	if d.rng.Intn(3) > 0 {
		mode = Exclusive
	}
	op := d.rng.Intn(10)
	if _, parked := d.blocked[txn]; parked {
		// A parked transaction can only be aborted; mostly leave it parked,
		// so that releases by others get to wake it.
		if d.rng.Intn(4) > 0 {
			return nil
		}
		op = 9
	}
	switch {
	case op < 4: // TryAcquire
		want := d.ref.acquire(txn, item, mode, false)
		err := d.m.TryAcquire(txn, item, mode)
		if (err == nil) != (want == refGranted) || (err != nil && !errors.Is(err, ErrWouldBlock)) {
			return fmt.Errorf("TryAcquire(%s,%s,%s) = %v, reference %d", txn, item, mode, err, want)
		}
	case op < 6: // Acquire
		// Only a transaction holding nothing may park: nobody waits for it,
		// so the stream can never close a waits-for cycle.
		if d.ref.wouldQueue(txn, item, mode) && d.ref.holdsAny(txn) {
			return nil
		}
		switch want := d.ref.acquire(txn, item, mode, true); want {
		case refQueued:
			ch := make(chan error, 1)
			d.blocked[txn] = ch
			go func() { ch <- d.m.Acquire(txn, item, mode) }()
			if err := d.waitParked(txn, item); err != nil {
				return err
			}
		default:
			err := d.m.Acquire(txn, item, mode)
			if (err == nil) != (want == refGranted) || (err != nil && !errors.Is(err, ErrWouldBlock)) {
				return fmt.Errorf("Acquire(%s,%s,%s) = %v, reference %d", txn, item, mode, err, want)
			}
		}
	case op < 8: // Release
		woken := d.ref.release(txn, item)
		d.m.Release(txn, item)
		if err := d.expectWoken(woken, nil); err != nil {
			return fmt.Errorf("Release(%s,%s): %w", txn, item, err)
		}
	default:
		if err := d.releaseAll(txn); err != nil {
			return err
		}
	}
	return d.compare()
}

func (d *diffDriver) releaseAll(txn types.TxnID) error {
	woken, cancelled := d.ref.releaseAll(txn)
	d.m.ReleaseAll(txn)
	if cancelled {
		if err := d.expectWoken([]types.TxnID{txn}, ErrWouldBlock); err != nil {
			return fmt.Errorf("ReleaseAll(%s): %w", txn, err)
		}
	}
	if err := d.expectWoken(woken, nil); err != nil {
		return fmt.Errorf("ReleaseAll(%s): %w", txn, err)
	}
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
// Acquire, Release and ReleaseAll against the indexed manager and the
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

// TestReleaseAllWakesInAcquisitionOrder pins the release order: one
// transaction takes eight items of one shard in a scrambled order, a second
// parks on all of them, and the order in which the ReleaseAll hands them over
// — read off the waiter's own index entry, which lists grants in order —
// is the order they were taken in. A walk over the lock map would hand them
// over in map order, matching by chance once in 8! runs.
func TestReleaseAllWakesInAcquisitionOrder(t *testing.T) {
	m := NewSharded(1, 1)
	order := []types.ItemID{"e", "b", "h", "a", "g", "c", "f", "d"}
	for _, item := range order {
		if err := m.TryAcquire(1, item, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, len(order))
	for _, item := range order {
		go func(item types.ItemID) { done <- m.Acquire(2, item, Exclusive) }(item)
	}
	for _, item := range order {
		waitQueued(t, m, item)
	}
	m.ReleaseAll(1)
	for range order {
		if err := <-done; err != nil {
			t.Fatalf("waiter woke with %v", err)
		}
	}
	sh := &m.shards[0]
	sh.mu.Lock()
	var got []types.ItemID
	for _, ls := range sh.byTxn[2].held {
		got = append(got, ls.item)
	}
	sh.mu.Unlock()
	if !reflect.DeepEqual(got, order) {
		t.Errorf("grant order = %v, want acquisition order %v", got, order)
	}
	m.ReleaseAll(2)
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

// TestAcquireRefusedUpgradeCountsWouldBlock pins that the blocking path
// counts a refused S→X upgrade exactly as TryAcquire does.
func TestAcquireRefusedUpgradeCountsWouldBlock(t *testing.T) {
	for _, acquire := range []struct {
		name string
		fn   func(*Manager, types.TxnID, types.ItemID, Mode) error
	}{{"TryAcquire", (*Manager).TryAcquire}, {"Acquire", (*Manager).Acquire}} {
		reg := obs.NewRegistry()
		m := New(1)
		m.SetMetrics(NewMetrics(reg, 1, m.Shards()))
		_ = m.TryAcquire(1, "x", Shared)
		_ = m.TryAcquire(2, "x", Shared)
		if err := acquire.fn(m, 1, "x", Exclusive); !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("%s: upgrade with a co-holder = %v, want ErrWouldBlock", acquire.name, err)
		}
		if got := obs.SumCounters(reg.Snapshot(), "qcommit_lock_wouldblock_total"); got != 1 {
			t.Errorf("%s: wouldblock = %d, want 1", acquire.name, got)
		}
	}
}
