package lockmgr

import (
	"errors"
	"fmt"
	"testing"

	"qcommit/internal/types"
)

func TestTryAcquireBasics(t *testing.T) {
	m := New(1)
	if err := m.TryAcquire(1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	if !m.Locked("x") || !m.LockedBy(1, "x") {
		t.Error("lock state wrong")
	}
	if err := m.TryAcquire(2, "x", Exclusive); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("conflicting X lock: err = %v", err)
	}
	m.Release(2, "x") // not the holder: changes nothing
	if !m.LockedBy(1, "x") {
		t.Error("a non-holder's Release let go of x")
	}
	m.Release(1, "x")
	if m.Locked("x") {
		t.Error("x still locked after release")
	}
	if err := m.TryAcquire(2, "x", Exclusive); err != nil {
		t.Errorf("X after release: %v", err)
	}
}

// TestRepeatedAcquireChangesNothing pins the table's one-hold rule: a
// holder's repeated TryAcquire succeeds without adding a hold, and one
// Release drops it.
func TestRepeatedAcquireChangesNothing(t *testing.T) {
	m := New(1)
	for i := 0; i < 3; i++ {
		if err := m.TryAcquire(1, "x", Exclusive); err != nil {
			t.Fatalf("acquire %d by the holder: %v", i, err)
		}
	}
	if m.HeldCount() != 1 || len(m.HeldItems(1)) != 1 {
		t.Errorf("HeldCount = %d, HeldItems = %v after three acquires; want one hold", m.HeldCount(), m.HeldItems(1))
	}
	m.Release(1, "x")
	if m.Locked("x") || m.HeldCount() != 0 {
		t.Error("one Release left x held")
	}
}

func TestHeldItemsSorted(t *testing.T) {
	m := New(1)
	_ = m.TryAcquire(1, "b", Exclusive)
	_ = m.TryAcquire(1, "a", Exclusive)
	_ = m.TryAcquire(2, "c", Exclusive)
	items := m.HeldItems(1)
	if len(items) != 2 || items[0] != "a" || items[1] != "b" {
		t.Errorf("HeldItems = %v", items)
	}
}

func TestModeString(t *testing.T) {
	if Exclusive.String() != "X" {
		t.Error("mode string wrong")
	}
}

// TestFirstGrantAllocs pins the cost of locking: with the table's maps
// already sized (their growth is amortized over the items they hold), a
// transaction's first grant allocates at most its held-item list, and a
// grant, a repeated grant and a release on a warm table allocate nothing.
func TestFirstGrantAllocs(t *testing.T) {
	const n = 200
	m := New(1)
	m.locks = make(map[types.ItemID]grant, 2*n)
	m.byTxn = make(map[types.TxnID][]types.ItemID, 2*n)
	items := make([]types.ItemID, 2*n)
	for i := range items {
		items[i] = types.ItemID(fmt.Sprint("item", i))
	}
	i := 0
	first := testing.AllocsPerRun(n, func() {
		if err := m.TryAcquire(types.TxnID(i+1), items[i], Exclusive); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if first > 1 {
		t.Errorf("first grant: %v allocs, want at most 1 (the held list)", first)
	}
	if err := m.TryAcquire(1_000_000, "warm", Exclusive); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1_000_000)
	warm := testing.AllocsPerRun(n, func() {
		if m.TryAcquire(1_000_000, "warm", Exclusive) != nil || m.TryAcquire(1_000_000, "warm", Exclusive) != nil {
			t.Fatal("warm grant refused")
		}
		m.Release(1_000_000, "warm")
	})
	if warm != 0 {
		t.Errorf("grant, repeated grant and release on a warm table: %v allocs, want 0", warm)
	}
}

// TestSingleShardManager pins NewSharded, which the benchmark harness
// calls: whatever its count, it builds the one table New does.
func TestSingleShardManager(t *testing.T) {
	for _, shards := range []int{0, 1, 16} {
		m := NewSharded(1, shards)
		if err := m.TryAcquire(1, "x", Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.TryAcquire(2, "x", Exclusive); !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("NewSharded(1, %d): conflict = %v, want ErrWouldBlock", shards, err)
		}
		m.ReleaseAll(1)
		if m.Locked("x") || m.HeldCount() != 0 {
			t.Errorf("NewSharded(1, %d): x still held after ReleaseAll", shards)
		}
	}
}
