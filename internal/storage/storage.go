// Package storage implements the per-site versioned store holding physical
// copies of replicated data items.
//
// Each copy carries a version number; weighted-voting reads collect a read
// quorum of copies and take the value with the highest version, which the
// Gifford constraint r(x)+w(x) > v(x) guarantees includes the most recent
// committed write (see package voting).
package storage

import (
	"fmt"
	"sync"

	"qcommit/internal/types"
)

// Versioned is a copy's value and version number.
type Versioned struct {
	Value   int64
	Version uint64
}

// Store holds the copies resident at one site. It is safe for concurrent use
// (the live runtime accesses it from multiple goroutines).
//
// A store seeded by InitFrom reads through to the caller's table, which it
// shares and never writes: its own map holds only the copies placed by Init
// or written since seeding, and a copy there shadows its seed. Building a
// world over one placement therefore costs nothing per seeded copy, and
// ScanWritten visits only what changed.
type Store struct {
	mu     sync.RWMutex
	site   types.SiteID
	seed   map[types.ItemID]Versioned // shared, read-only
	copies map[types.ItemID]Versioned
}

// NewStore creates an empty store for a site.
func NewStore(site types.SiteID) *Store {
	return &Store{site: site, copies: make(map[types.ItemID]Versioned)}
}

// Site returns the owning site.
func (s *Store) Site() types.SiteID { return s.site }

// Init places a copy of item with an initial value at version 1. It is used
// during cluster construction.
func (s *Store) Init(item types.ItemID, value int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.copies[item] = Versioned{Value: value, Version: 1}
}

// InitFrom replaces the store contents with src, which the store keeps as
// its read-only seed: src is shared, not cloned, and must not change while
// the store is in use. Every later write lands in the store's own map, so
// any number of stores may share one seed table.
func (s *Store) InitFrom(src map[types.ItemID]Versioned) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seed = src
	s.copies = make(map[types.ItemID]Versioned)
}

// get returns the current copy of item; the caller holds s.mu.
func (s *Store) get(item types.ItemID) (Versioned, bool) {
	if v, ok := s.copies[item]; ok {
		return v, true
	}
	v, ok := s.seed[item]
	return v, ok
}

// Has reports whether the site holds a copy of item.
func (s *Store) Has(item types.ItemID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.get(item)
	return ok
}

// Read returns the local copy of item.
func (s *Store) Read(item types.ItemID) (Versioned, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.get(item)
	if !ok {
		return Versioned{}, fmt.Errorf("storage: %s holds no copy of %q", s.site, item)
	}
	return v, nil
}

// Apply installs a committed write at the given version. Versions must be
// monotonically increasing per copy; a stale version is rejected so that a
// duplicated or reordered COMMIT cannot roll a copy backward.
func (s *Store) Apply(item types.ItemID, value int64, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.get(item)
	if !ok {
		return fmt.Errorf("storage: %s holds no copy of %q", s.site, item)
	}
	if version <= cur.Version {
		return nil // duplicate/stale apply: idempotent no-op
	}
	s.copies[item] = Versioned{Value: value, Version: version}
	return nil
}

// ApplyWriteset applies every update in ws that this site holds a copy of,
// at the given version.
func (s *Store) ApplyWriteset(ws types.Writeset, version uint64) {
	for _, u := range ws {
		if s.Has(u.Item) {
			_ = s.Apply(u.Item, u.Value, version)
		}
	}
}

// Scan calls fn for every copy in the store, in map order. Callers that
// need a stable order must sort what they collect.
func (s *Store) Scan(fn func(types.ItemID, Versioned)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, v := range s.copies {
		fn(id, v)
	}
	for id, v := range s.seed {
		if _, shadowed := s.copies[id]; !shadowed {
			fn(id, v)
		}
	}
}

// ScanWritten calls fn, in map order, for every copy in the store's own map:
// those placed by Init or written since InitFrom. A seeded copy no write has
// reached is skipped, so an auditor of written versions pays only for them.
func (s *Store) ScanWritten(fn func(types.ItemID, Versioned)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, v := range s.copies {
		fn(id, v)
	}
}

// Snapshot returns a copy of the full store contents.
func (s *Store) Snapshot() map[types.ItemID]Versioned {
	out := make(map[types.ItemID]Versioned)
	s.Scan(func(id types.ItemID, v Versioned) { out[id] = v })
	return out
}

// ResolveRead picks the most recent value among quorum copies: the highest
// version wins. It returns an error on an empty set.
func ResolveRead(copies []Versioned) (Versioned, error) {
	if len(copies) == 0 {
		return Versioned{}, fmt.Errorf("storage: empty read set")
	}
	best := copies[0]
	for _, c := range copies[1:] {
		if c.Version > best.Version {
			best = c
		}
	}
	return best, nil
}
