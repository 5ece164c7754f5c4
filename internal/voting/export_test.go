package voting

import "qcommit/internal/types"

// The quorum predicates below are read only by this package's tests: the
// protocols count votes through quorumcalc's compiled frames.

// HasReadQuorum reports whether the sites jointly hold ≥ r(x) votes for x.
func (a *Assignment) HasReadQuorum(x types.ItemID, sites []types.SiteID) bool {
	ic, ok := a.items[x]
	return ok && a.VotesFor(x, sites) >= ic.R
}

// HasWriteQuorum reports whether the sites jointly hold ≥ w(x) votes for x.
func (a *Assignment) HasWriteQuorum(x types.ItemID, sites []types.SiteID) bool {
	ic, ok := a.items[x]
	return ok && a.VotesFor(x, sites) >= ic.W
}

// WriteQuorumForEvery reports whether the sites hold ≥ w(x) votes for every
// item in items — the "commit side" condition of Termination Protocol 1.
// It is false for an empty item list (no transaction writes nothing).
func (a *Assignment) WriteQuorumForEvery(items []types.ItemID, sites []types.SiteID) bool {
	if len(items) == 0 {
		return false
	}
	for _, x := range items {
		if !a.HasWriteQuorum(x, sites) {
			return false
		}
	}
	return true
}

// ReadQuorumForSome reports whether the sites hold ≥ r(x) votes for some item
// in items — the "abort side" condition of Termination Protocol 1.
func (a *Assignment) ReadQuorumForSome(items []types.ItemID, sites []types.SiteID) bool {
	for _, x := range items {
		if a.HasReadQuorum(x, sites) {
			return true
		}
	}
	return false
}
