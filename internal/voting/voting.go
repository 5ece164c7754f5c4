// Package voting implements Gifford-style weighted voting for replicated
// data, the partition-processing strategy the paper folds into its commit
// and termination protocols.
//
// Every copy of each data item x is assigned votes. A transaction must
// collect r(x) votes to read x and w(x) votes to write x, subject to
//
//	(1) r(x) + w(x) > v(x)   — reads see the most recent copy, and x cannot
//	                           be read in one partition and written in another
//	(2) w(x) > v(x)/2        — two writes cannot proceed in parallel or in
//	                           two different partitions
//
// where v(x) is the total number of votes of x. Version numbers identify the
// most recent copy (package storage).
package voting

import (
	"fmt"
	"slices"

	"qcommit/internal/types"
)

// Copy is one physical replica of an item: its site and its vote weight.
type Copy struct {
	Site  types.SiteID
	Votes int
}

// ItemConfig is the replication configuration of one data item.
type ItemConfig struct {
	Item   types.ItemID
	Copies []Copy
	R      int // read quorum r(x)
	W      int // write quorum w(x)
}

// TotalVotes returns v(x), the sum of all copy votes.
func (ic ItemConfig) TotalVotes() int {
	total := 0
	for _, c := range ic.Copies {
		total += c.Votes
	}
	return total
}

// VotesAt returns the votes the given site holds for this item (0 if none).
func (ic ItemConfig) VotesAt(site types.SiteID) int {
	for _, c := range ic.Copies {
		if c.Site == site {
			return c.Votes
		}
	}
	return 0
}

// Sites returns the sites holding copies, in ascending order.
func (ic ItemConfig) Sites() []types.SiteID {
	out := make([]types.SiteID, 0, len(ic.Copies))
	for _, c := range ic.Copies {
		out = append(out, c.Site)
	}
	slices.Sort(out)
	return out
}

// Validate checks the two Gifford constraints and basic sanity.
func (ic ItemConfig) Validate() error {
	if len(ic.Copies) == 0 {
		return fmt.Errorf("voting: item %q has no copies", ic.Item)
	}
	for i, c := range ic.Copies {
		if c.Votes <= 0 {
			return fmt.Errorf("voting: item %q copy at %s has non-positive votes %d", ic.Item, c.Site, c.Votes)
		}
		if slices.ContainsFunc(ic.Copies[:i], func(p Copy) bool { return p.Site == c.Site }) {
			return fmt.Errorf("voting: item %q has two copies at %s", ic.Item, c.Site)
		}
	}
	v := ic.TotalVotes()
	if ic.R <= 0 || ic.W <= 0 {
		return fmt.Errorf("voting: item %q quorums must be positive (r=%d w=%d)", ic.Item, ic.R, ic.W)
	}
	if ic.R > v || ic.W > v {
		return fmt.Errorf("voting: item %q quorum exceeds total votes %d (r=%d w=%d)", ic.Item, v, ic.R, ic.W)
	}
	if ic.R+ic.W <= v {
		return fmt.Errorf("voting: item %q violates r+w > v (r=%d w=%d v=%d)", ic.Item, ic.R, ic.W, v)
	}
	if 2*ic.W <= v {
		return fmt.Errorf("voting: item %q violates w > v/2 (w=%d v=%d)", ic.Item, ic.W, v)
	}
	return nil
}

// Assignment is the cluster-wide vote assignment: the replication
// configuration of every item. It is immutable after Build and shared by all
// sites (the paper assumes the assignment is static, known configuration).
type Assignment struct {
	items map[types.ItemID]ItemConfig
	order []types.ItemID
	sites []types.SiteID // every site holding a copy, ascending
}

// NewAssignment validates and indexes the given item configurations.
func NewAssignment(items ...ItemConfig) (*Assignment, error) {
	a := &Assignment{items: make(map[types.ItemID]ItemConfig, len(items)), order: make([]types.ItemID, 0, len(items))}
	for _, ic := range items {
		if err := ic.Validate(); err != nil {
			return nil, err
		}
		if _, dup := a.items[ic.Item]; dup {
			return nil, fmt.Errorf("voting: duplicate item %q", ic.Item)
		}
		a.items[ic.Item] = ic
		a.order = append(a.order, ic.Item)
		for _, cp := range ic.Copies {
			if i, found := slices.BinarySearch(a.sites, cp.Site); !found {
				a.sites = slices.Insert(a.sites, i, cp.Site)
			}
		}
	}
	return a, nil
}

// MustAssignment is NewAssignment that panics on error, for tests and fixed
// example scenarios.
func MustAssignment(items ...ItemConfig) *Assignment {
	a, err := NewAssignment(items...)
	if err != nil {
		panic(err)
	}
	return a
}

// Item returns the configuration of x.
func (a *Assignment) Item(x types.ItemID) (ItemConfig, bool) {
	ic, ok := a.items[x]
	return ic, ok
}

// Items returns all item IDs in declaration order.
func (a *Assignment) Items() []types.ItemID {
	out := make([]types.ItemID, len(a.order))
	copy(out, a.order)
	return out
}

// Sites returns every site holding a copy of some item, ascending.
func (a *Assignment) Sites() []types.SiteID { return slices.Clone(a.sites) }

// VotesAt returns the votes site holds for item x.
func (a *Assignment) VotesAt(site types.SiteID, x types.ItemID) int {
	return a.items[x].VotesAt(site)
}

// ReadQuorum returns r(x).
func (a *Assignment) ReadQuorum(x types.ItemID) int { return a.items[x].R }

// WriteQuorum returns w(x).
func (a *Assignment) WriteQuorum(x types.ItemID) int { return a.items[x].W }

// TotalVotes returns v(x).
func (a *Assignment) TotalVotes(x types.ItemID) int { return a.items[x].TotalVotes() }

// Participants returns the union of sites holding copies of the given items,
// ascending. These are the participants of a transaction writing those items.
// Unknown items contribute nothing; the result is never nil.
func (a *Assignment) Participants(items []types.ItemID) []types.SiteID {
	// Collect on the stack, then copy out exactly what survives: one
	// allocation for the writesets transactions realistically have.
	var buf [32]types.SiteID
	all := buf[:0]
	for _, x := range items {
		for _, c := range a.items[x].Copies {
			all = append(all, c.Site)
		}
	}
	slices.Sort(all)
	return slices.Clone(slices.Compact(all))
}

// VotesFor sums the votes for item x held by the given sites.
func (a *Assignment) VotesFor(x types.ItemID, sites []types.SiteID) int {
	ic := a.items[x]
	total := 0
	for _, s := range sites {
		total += ic.VotesAt(s)
	}
	return total
}

// ForEachItem calls f for every item configuration in declaration order,
// without copying the item list (unlike Items).
func (a *Assignment) ForEachItem(f func(ItemConfig)) {
	for _, x := range a.order {
		f(a.items[x])
	}
}

// Uniform builds an ItemConfig with one single-vote copy per site and the
// given quorums. It is the common configuration of the paper's examples
// (each copy has vote 1).
func Uniform(item types.ItemID, r, w int, sites ...types.SiteID) ItemConfig {
	copies := make([]Copy, len(sites))
	for i, s := range sites {
		copies[i] = Copy{Site: s, Votes: 1}
	}
	return ItemConfig{Item: item, Copies: copies, R: r, W: w}
}

// MajorityQuorums returns (r, w) for n single-vote copies with both quorums
// set to a simple majority, the tightest symmetric choice satisfying the
// Gifford constraints.
func MajorityQuorums(n int) (r, w int) {
	w = n/2 + 1
	r = n + 1 - w
	return r, w
}
