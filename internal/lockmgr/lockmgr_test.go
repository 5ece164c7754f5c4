package lockmgr

import (
	"errors"
	"testing"
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
	if err := m.TryAcquire(2, "x", Shared); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("S after X: err = %v", err)
	}
	m.Release(1, "x")
	if m.Locked("x") {
		t.Error("x still locked after release")
	}
	if err := m.TryAcquire(2, "x", Shared); err != nil {
		t.Errorf("S after release: %v", err)
	}
}

func TestSharedCompatibility(t *testing.T) {
	m := New(1)
	if err := m.TryAcquire(1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(2, "x", Shared); err != nil {
		t.Errorf("S+S should be compatible: %v", err)
	}
	if err := m.TryAcquire(3, "x", Exclusive); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("X against S holders: %v", err)
	}
}

func TestReentrancyAndUpgrade(t *testing.T) {
	m := New(1)
	_ = m.TryAcquire(1, "x", Shared)
	if err := m.TryAcquire(1, "x", Shared); err != nil {
		t.Errorf("re-entrant S: %v", err)
	}
	// Sole holder upgrade S → X succeeds.
	if err := m.TryAcquire(1, "x", Exclusive); err != nil {
		t.Errorf("upgrade by sole holder: %v", err)
	}
	// Now a second reader must be blocked.
	if err := m.TryAcquire(2, "x", Shared); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("S against upgraded X: %v", err)
	}
	// Upgrade with two holders fails.
	m2 := New(2)
	_ = m2.TryAcquire(1, "y", Shared)
	_ = m2.TryAcquire(2, "y", Shared)
	if err := m2.TryAcquire(1, "y", Exclusive); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("upgrade with co-holders: %v", err)
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
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Error("mode strings wrong")
	}
}
