package types

// denseSites bounds the IDs a SiteTable keeps in its slice. Sites are
// numbered from 1, so every configuration in this repository fits.
const denseSites = 1 << 12

// SiteTable maps site IDs to values: the map the simulator keeps per site,
// stored as a slice indexed by the ID, so a lookup is a bounds check and a
// load rather than a hash. IDs outside [0, 4096) fall back to a map, so the
// table behaves as a map for every SiteID. Get of an absent ID returns the
// zero value. The zero SiteTable is empty and ready to use.
type SiteTable[T any] struct {
	dense  []T
	sparse map[SiteID]T
}

// Get returns the value stored for id, or the zero value.
func (t *SiteTable[T]) Get(id SiteID) T {
	if uint32(id) < uint32(len(t.dense)) {
		return t.dense[id]
	}
	return t.sparse[id]
}

// Set stores v for id.
func (t *SiteTable[T]) Set(id SiteID, v T) {
	if id < 0 || id >= denseSites {
		if t.sparse == nil {
			t.sparse = make(map[SiteID]T)
		}
		t.sparse[id] = v
		return
	}
	if n := int(id) + 1; n > len(t.dense) {
		t.dense = append(t.dense, make([]T, n-len(t.dense))...)
	}
	t.dense[id] = v
}
