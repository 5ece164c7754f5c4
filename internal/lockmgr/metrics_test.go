package lockmgr

import (
	"testing"

	"qcommit/internal/obs"
	"qcommit/internal/types"
)

// TestMetricsRecording pins the manager's observability hooks: grants and
// releases produce hold samples, contention bumps the would-block counter,
// and those are the only series the manager registers.
func TestMetricsRecording(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewSharded(1, 4)
	m.SetMetrics(NewMetrics(reg, 1, m.Shards()))

	item := types.ItemID("x")
	if err := m.TryAcquire(1, item, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(2, item, Exclusive); err != ErrWouldBlock {
		t.Fatalf("contended TryAcquire = %v, want ErrWouldBlock", err)
	}
	m.ReleaseAll(1)

	holds := obs.MergeHistograms(reg.Snapshot(), "qcommit_lock_hold_ns")
	if holds.Count != 1 {
		t.Errorf("hold samples = %d, want 1 (one grant fully released)", holds.Count)
	}
	if got := obs.SumCounters(reg.Snapshot(), "qcommit_lock_wouldblock_total"); got != 1 {
		t.Errorf("wouldblock = %d, want 1", got)
	}
	// A manager that never waits registers one hold series per shard and
	// one would-block counter, and nothing else.
	for _, s := range reg.Snapshot() {
		if s.Base != "qcommit_lock_hold_ns" && s.Base != "qcommit_lock_wouldblock_total" {
			t.Errorf("unexpected series %s", s.Name)
		}
	}
	if got := len(reg.Snapshot()); got != m.Shards()+1 {
		t.Errorf("%d series registered, want %d", got, m.Shards()+1)
	}
}

// TestMetricsNilIsFree pins that a manager without metrics records nothing
// and never allocates grant-timestamp maps.
func TestMetricsNilIsFree(t *testing.T) {
	m := NewSharded(1, 2)
	item := types.ItemID("x")
	if err := m.TryAcquire(1, item, Exclusive); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	sh := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ls := sh.locks[item]; ls != nil && ls.since != nil {
		t.Error("since map allocated without metrics")
	}
}
