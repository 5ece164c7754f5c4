package storage

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"qcommit/internal/types"
)

func TestStoreInitReadApply(t *testing.T) {
	s := NewStore(1)
	if s.Site() != 1 {
		t.Error("site wrong")
	}
	s.Init("x", 10)
	if !s.Has("x") || s.Has("y") {
		t.Error("Has wrong")
	}
	v, err := s.Read("x")
	if err != nil || v.Value != 10 || v.Version != 1 {
		t.Errorf("Read = %+v, %v", v, err)
	}
	if _, err := s.Read("y"); err == nil {
		t.Error("Read of absent copy should fail")
	}
	if err := s.Apply("x", 20, 5); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Read("x")
	if v.Value != 20 || v.Version != 5 {
		t.Errorf("after apply: %+v", v)
	}
}

func TestStoreApplyStaleIsNoOp(t *testing.T) {
	s := NewStore(1)
	s.Init("x", 0)
	_ = s.Apply("x", 100, 10)
	// A duplicated or delayed COMMIT at an older version must not roll back.
	if err := s.Apply("x", 55, 3); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Read("x")
	if v.Value != 100 || v.Version != 10 {
		t.Errorf("stale apply changed copy: %+v", v)
	}
	// Same version is also stale.
	_ = s.Apply("x", 77, 10)
	v, _ = s.Read("x")
	if v.Value != 100 {
		t.Errorf("same-version apply changed copy: %+v", v)
	}
}

func TestStoreApplyUnknownItem(t *testing.T) {
	s := NewStore(1)
	if err := s.Apply("nope", 1, 2); err == nil {
		t.Error("apply to absent copy should fail")
	}
}

func TestApplyWritesetOnlyLocalCopies(t *testing.T) {
	s := NewStore(1)
	s.Init("x", 0)
	ws := types.Writeset{{Item: "x", Value: 5}, {Item: "y", Value: 9}}
	s.ApplyWriteset(ws, 2)
	v, _ := s.Read("x")
	if v.Value != 5 {
		t.Errorf("x = %+v", v)
	}
	if s.Has("y") {
		t.Error("y must not appear")
	}
}

func TestItemsAndSnapshot(t *testing.T) {
	s := NewStore(1)
	s.Init("b", 2)
	s.Init("a", 1)
	snap := s.Snapshot()
	if len(snap) != 2 || snap["a"].Value != 1 || snap["b"].Value != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
	// Snapshot must be a copy.
	snap["a"] = Versioned{Value: 99, Version: 9}
	v, _ := s.Read("a")
	if v.Value != 1 {
		t.Error("snapshot aliases store")
	}
}

// TestSharedSeed: stores seeded from one table read through to it, keep
// their writes to themselves, and never write the table.
func TestSharedSeed(t *testing.T) {
	seed := map[types.ItemID]Versioned{"x": {Value: 0, Version: 1}, "y": {Value: 7, Version: 1}}
	a, b := NewStore(1), NewStore(2)
	a.InitFrom(seed)
	b.InitFrom(seed)
	if err := a.Apply("x", 5, 3); err != nil {
		t.Fatal(err)
	}
	a.ApplyWriteset(types.Writeset{{Item: "y", Value: 8}, {Item: "z", Value: 9}}, 4)
	if err := b.Apply("y", 6, 2); err != nil {
		t.Fatal(err)
	}

	if want := (map[types.ItemID]Versioned{"x": {0, 1}, "y": {7, 1}}); !reflect.DeepEqual(seed, want) {
		t.Fatalf("seed table written: %v", seed)
	}
	if a.Has("z") || b.Has("z") {
		t.Error("an update of an unseeded item created a copy")
	}
	for _, tc := range []struct {
		s    *Store
		want map[types.ItemID]Versioned
		// written is what ScanWritten visits: the copies a write reached.
		written map[types.ItemID]Versioned
	}{
		{a, map[types.ItemID]Versioned{"x": {5, 3}, "y": {8, 4}}, map[types.ItemID]Versioned{"x": {5, 3}, "y": {8, 4}}},
		{b, map[types.ItemID]Versioned{"x": {0, 1}, "y": {6, 2}}, map[types.ItemID]Versioned{"y": {6, 2}}},
	} {
		for item, want := range tc.want {
			if !tc.s.Has(item) {
				t.Errorf("site %d: Has(%s) = false", tc.s.Site(), item)
			}
			if got, err := tc.s.Read(item); err != nil || got != want {
				t.Errorf("site %d: Read(%s) = %v, %v; want %v", tc.s.Site(), item, got, err, want)
			}
		}
		scanned := make(map[types.ItemID]Versioned)
		tc.s.Scan(func(item types.ItemID, v Versioned) {
			if _, dup := scanned[item]; dup {
				t.Errorf("site %d: Scan visited %s twice", tc.s.Site(), item)
			}
			scanned[item] = v
		})
		if !reflect.DeepEqual(scanned, tc.want) {
			t.Errorf("site %d: Scan = %v, want %v", tc.s.Site(), scanned, tc.want)
		}
		if snap := tc.s.Snapshot(); !reflect.DeepEqual(snap, tc.want) {
			t.Errorf("site %d: Snapshot = %v, want %v", tc.s.Site(), snap, tc.want)
		}
		written := make(map[types.ItemID]Versioned)
		tc.s.ScanWritten(func(item types.ItemID, v Versioned) { written[item] = v })
		if !reflect.DeepEqual(written, tc.written) {
			t.Errorf("site %d: ScanWritten = %v, want %v", tc.s.Site(), written, tc.written)
		}
	}

	// A stale apply against a seeded copy neither shadows nor writes it.
	if err := b.Apply("x", 1, 1); err != nil {
		t.Fatal(err)
	}
	b.ScanWritten(func(item types.ItemID, _ Versioned) {
		if item == "x" {
			t.Error("stale apply shadowed the seed")
		}
	})
}

func TestResolveRead(t *testing.T) {
	if _, err := ResolveRead(nil); err == nil {
		t.Error("empty read set should fail")
	}
	got, err := ResolveRead([]Versioned{
		{Value: 1, Version: 3},
		{Value: 2, Version: 7},
		{Value: 3, Version: 5},
	})
	if err != nil || got.Value != 2 || got.Version != 7 {
		t.Errorf("ResolveRead = %+v, %v", got, err)
	}
}

// TestVersionMonotonicityProperty: after any sequence of Apply calls the
// copy's version never decreases and always equals the max applied version
// (or 1 if none exceeded the initial version).
func TestVersionMonotonicityProperty(t *testing.T) {
	f := func(versions []uint64, values []int64) bool {
		s := NewStore(1)
		s.Init("x", 0)
		maxV := uint64(1)
		var expect int64 = 0
		for i, ver := range versions {
			ver %= 64
			val := int64(i)
			if i < len(values) {
				val = values[i]
			}
			_ = s.Apply("x", val, ver)
			if ver > maxV {
				maxV = ver
				expect = val
			}
		}
		got, _ := s.Read("x")
		return got.Version == maxV && got.Value == expect
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestResolveReadSeesLatestProperty: the Gifford read rule (take the highest
// version in the quorum) returns the value written at the max version.
func TestResolveReadSeesLatestProperty(t *testing.T) {
	f := func(pairs []uint32) bool {
		if len(pairs) == 0 {
			return true
		}
		copies := make([]Versioned, len(pairs))
		var best Versioned
		for i, p := range pairs {
			copies[i] = Versioned{Value: int64(p % 97), Version: uint64(p)}
			if copies[i].Version >= best.Version {
				// Ties: ResolveRead keeps the first max; emulate.
				if copies[i].Version > best.Version {
					best = copies[i]
				}
			}
		}
		if best.Version == 0 {
			best = copies[0]
			for _, c := range copies {
				if c.Version > best.Version {
					best = c
				}
			}
		}
		got, err := ResolveRead(copies)
		return err == nil && got.Version == maxVersion(copies)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func maxVersion(cs []Versioned) uint64 {
	var m uint64
	for _, c := range cs {
		if c.Version > m {
			m = c.Version
		}
	}
	return m
}

func TestStoreConcurrentAccess(t *testing.T) {
	// Two stores share one seed table, as the sites of a seeded world do.
	seed := map[types.ItemID]Versioned{"x": {Version: 1}}
	stores := []*Store{NewStore(1), NewStore(2)}
	for _, s := range stores {
		s.InitFrom(seed)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := stores[g%2]
			for i := 0; i < 100; i++ {
				_ = s.Apply("x", int64(i), uint64(g*100+i))
				_, _ = s.Read("x")
				_ = s.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	for _, s := range stores {
		if v, _ := s.Read("x"); v.Version <= 1 {
			t.Errorf("site %d: no applies took effect", s.Site())
		}
	}
	if seed["x"] != (Versioned{Version: 1}) {
		t.Errorf("seed table written: %v", seed)
	}
}
