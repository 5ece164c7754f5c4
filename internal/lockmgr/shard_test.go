package lockmgr

import (
	"errors"
	"fmt"
	"testing"

	"qcommit/internal/types"
)

// twoItemsInDifferentShards returns item names that hash to distinct shards
// of m (the per-process hash seed makes the mapping stable within a run but
// not across runs, so tests compute it rather than assume it).
func twoItemsInDifferentShards(t *testing.T, m *Manager) (types.ItemID, types.ItemID) {
	t.Helper()
	first := types.ItemID("item0")
	fs := m.shardOf(first)
	for i := 1; i < 10000; i++ {
		it := types.ItemID(fmt.Sprintf("item%d", i))
		if m.shardOf(it) != fs {
			return first, it
		}
	}
	t.Fatal("could not find items in different shards")
	return "", ""
}

func TestShardedSpreadsItems(t *testing.T) {
	m := New(1)
	if m.Shards() != DefaultShards {
		t.Fatalf("Shards() = %d, want %d", m.Shards(), DefaultShards)
	}
	a, b := twoItemsInDifferentShards(t, m)
	if m.shardOf(a) == m.shardOf(b) {
		t.Fatal("helper returned same-shard items")
	}
	// Same item always maps to the same shard, on any manager.
	m2 := NewSharded(2, DefaultShards)
	for _, it := range []types.ItemID{a, b, "x", "y"} {
		if m.shardOf(it) != &m.shards[shardIndex(m2, it)] {
			t.Fatalf("item %s maps to different shard indexes on equal-width managers", it)
		}
	}
}

func shardIndex(m *Manager, item types.ItemID) int {
	sh := m.shardOf(item)
	for i := range m.shards {
		if sh == &m.shards[i] {
			return i
		}
	}
	return -1
}

func TestSingleShardManager(t *testing.T) {
	m := NewSharded(1, 1)
	if m.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", m.Shards())
	}
	if err := m.TryAcquire(1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(2, "x", Shared); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("conflict on 1-shard manager: %v", err)
	}
	m.ReleaseAll(1)
	if m.Locked("x") {
		t.Error("still locked")
	}
}
