package voting

import (
	"sort"
	"sync"

	"qcommit/internal/types"
)

// This file implements the missing-writes scheme (Eager & Sevcik, "Achieving
// robustness in distributed database systems", ACM TODS 1983 — reference [5]
// of the paper): an adaptive voting strategy that improves performance when
// there are no failures.
//
// While an item has no *missing writes*, transactions run in optimistic mode
// — read any single copy, write all copies — which is cheaper than quorum
// operations. The first write that fails to reach every copy records a
// missing write for the copies it missed; from then on the item operates in
// pessimistic (quorum) mode with the item's configured r(x)/w(x), which the
// Gifford constraints keep correct. When the stale copies catch up, the
// missing writes are resolved and the item returns to optimistic mode.
//
// The paper's conclusion notes its termination-protocol idea "can be
// generalized to work with other partition-processing strategies"; this
// module provides the obvious second strategy to generalize to.

// Mode is an item's current missing-writes operating mode.
type Mode uint8

// Modes.
const (
	// Optimistic: read-one / write-all. Requires no missing writes.
	Optimistic Mode = iota
	// Pessimistic: quorum reads and writes with the configured r(x)/w(x).
	Pessimistic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Optimistic {
		return "optimistic"
	}
	return "pessimistic"
}

// Adaptive tracks missing writes per item on top of a static Assignment and
// answers which quorum each operation needs right now. It is safe for
// concurrent use.
type Adaptive struct {
	asgn *Assignment

	mu sync.Mutex
	// missing[item] is the set of sites whose copy missed at least one
	// write since the item last left optimistic mode.
	missing map[types.ItemID]map[types.SiteID]bool
	// demotions counts optimistic→pessimistic transitions, restorations the
	// reverse — the churn study's mode-churn metric.
	demotions    int
	restorations int
}

// NewAdaptive wraps an assignment with missing-writes tracking. All items
// start in optimistic mode.
func NewAdaptive(asgn *Assignment) *Adaptive {
	return &Adaptive{
		asgn:    asgn,
		missing: make(map[types.ItemID]map[types.SiteID]bool),
	}
}

// ModeOf returns the item's current mode.
func (a *Adaptive) ModeOf(item types.ItemID) Mode {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.missing[item]) > 0 {
		return Pessimistic
	}
	return Optimistic
}

// MissingAt returns the sites currently carrying missing writes for item,
// ascending.
func (a *Adaptive) MissingAt(item types.ItemID) []types.SiteID {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := a.missing[item]
	out := make([]types.SiteID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DegradeExcept records missing writes for every copy of item NOT listed in
// reached, demoting the item to pessimistic mode if any copy was missed. It
// performs no quorum legality check: the Tracker calls it at commit-apply
// time, after the commit protocol has already collected the write quorum.
func (a *Adaptive) DegradeExcept(item types.ItemID, reached []types.SiteID) {
	ic, ok := a.asgn.Item(item)
	if !ok {
		return
	}
	reachedSet := make(map[types.SiteID]bool, len(reached))
	for _, s := range reached {
		reachedSet[s] = true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	wasOptimistic := len(a.missing[item]) == 0
	for _, cp := range ic.Copies {
		if !reachedSet[cp.Site] {
			set := a.missing[item]
			if set == nil {
				set = make(map[types.SiteID]bool)
				a.missing[item] = set
			}
			set[cp.Site] = true
		}
	}
	if wasOptimistic && len(a.missing[item]) > 0 {
		a.demotions++
	}
}

// IsMissing reports whether site currently carries a missing write for item.
func (a *Adaptive) IsMissing(item types.ItemID, site types.SiteID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.missing[item][site]
}

// Transitions returns the cumulative mode-transition counts: demotions
// (optimistic→pessimistic) and restorations (pessimistic→optimistic).
func (a *Adaptive) Transitions() (demotions, restorations int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.demotions, a.restorations
}

// ResolveMissing clears missing writes for the given sites (their copies
// caught up, e.g. by copying the latest version during recovery). When the
// last missing write of an item resolves, the item returns to optimistic
// mode.
func (a *Adaptive) ResolveMissing(item types.ItemID, sites ...types.SiteID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := a.missing[item]
	wasPessimistic := len(set) > 0
	for _, s := range sites {
		delete(set, s)
	}
	if len(set) == 0 {
		delete(a.missing, item)
		if wasPessimistic {
			a.restorations++
		}
	}
}
