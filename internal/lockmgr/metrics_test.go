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
	m := New(1)
	m.SetMetrics(NewMetrics(reg, 1))

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
	// A manager that never waits registers one hold series and one
	// would-block counter, both labelled by site only, and nothing else.
	want := map[string]bool{
		`qcommit_lock_hold_ns{site="1"}`:          true,
		`qcommit_lock_wouldblock_total{site="1"}`: true,
	}
	for _, s := range reg.Snapshot() {
		if !want[s.Name] {
			t.Errorf("unexpected series %s", s.Name)
		}
	}
	if got := len(reg.Snapshot()); got != len(want) {
		t.Errorf("%d series registered, want %d", got, len(want))
	}
}

// TestMetricsNilIsFree pins that a manager without metrics records nothing:
// no grant is timestamped.
func TestMetricsNilIsFree(t *testing.T) {
	m := New(1)
	item := types.ItemID("x")
	if err := m.TryAcquire(1, item, Exclusive); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	since := m.locks[item].since
	m.mu.Unlock()
	if since != 0 {
		t.Error("grant timestamped without metrics")
	}
	m.ReleaseAll(1)
}
