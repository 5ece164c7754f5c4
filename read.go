package qcommit

import (
	"qcommit/internal/engine"
)

// Data-access errors. All three paths (QuorumRead, CanWrite, CanRead) share
// one vote-counting pass in the engine, so they classify failures
// identically.
var (
	// ErrNoQuorum means the reachable, unlocked copies do not carry enough
	// votes for the operation under the item's current access mode.
	ErrNoQuorum = engine.ErrNoQuorum
	// ErrUnknownItem means the item has no replica configuration.
	ErrUnknownItem = engine.ErrUnknownItem
	// ErrSiteDown means the site issuing the operation is itself down — a
	// crashed site cannot assemble quorums or serve reads.
	ErrSiteDown = engine.ErrSiteDown
)

// QuorumRead performs a strategy-aware read of item as seen from the given
// site: it collects copies from up sites in the same partition group whose
// copies are not locked by a pending transaction, requires the item's
// current read quorum, and returns the value with the highest version
// number. Under StrategyQuorum the quorum is always r(x) votes (which the
// constraint r+w > v guarantees includes the most recently committed copy);
// under StrategyMissingWrites an item in optimistic mode needs only a single
// fresh copy (read-one), while a demoted item needs r(x) votes among copies
// not carrying missing writes.
func (c *Cluster) QuorumRead(from SiteID, item ItemID) (int64, error) {
	v, err := c.eng.ReadItem(from, item)
	if err != nil {
		return 0, err
	}
	return v.Value, nil
}

// CanWrite reports whether a transaction writing item could assemble a write
// quorum from the given site's partition right now (up, connected, unlocked
// copies carrying ≥ w(x) votes). Under StrategyMissingWrites the threshold
// stays w(x): an optimistic write tries to reach every copy, but one that
// reaches at least the pessimistic quorum proceeds and demotes the item
// instead of failing.
func (c *Cluster) CanWrite(from SiteID, item ItemID) bool {
	return c.eng.CanWrite(from, item)
}

// CanRead is the read-quorum counterpart of CanWrite. It shares the
// vote-counting pass with QuorumRead but resolves no values.
func (c *Cluster) CanRead(from SiteID, item ItemID) bool {
	return c.eng.CanRead(from, item)
}

// Strategy returns the cluster's access strategy.
func (c *Cluster) Strategy() Strategy { return c.eng.Strategy() }

// Items returns the replicated item names in declaration order.
func (c *Cluster) Items() []ItemID { return c.eng.Assignment().Items() }

// ItemMode returns item's current missing-writes operating mode. Under
// StrategyQuorum every item is permanently ModePessimistic (quorum
// operations only); under StrategyMissingWrites items start ModeOptimistic
// and move between the modes as writes miss copies and stale copies catch
// up.
func (c *Cluster) ItemMode(item ItemID) Mode { return c.eng.Tracker().ItemMode(item) }

// MissingWritesAt returns the sites currently carrying missing writes for
// item (always empty under StrategyQuorum), ascending.
func (c *Cluster) MissingWritesAt(item ItemID) []SiteID { return c.eng.Tracker().MissingAt(item) }

// ModeTransitions returns the cumulative missing-writes mode transitions
// observed so far: demotions (optimistic→pessimistic) and restorations (the
// reverse). Both are zero under StrategyQuorum.
func (c *Cluster) ModeTransitions() (demotions, restorations int) {
	return c.eng.Tracker().ModeTransitions()
}

// VoteEpoch returns the version number of item's current dynamic vote table
// — how many reassignments the item has been through. Always 0 under the
// static strategies.
func (c *Cluster) VoteEpoch(item ItemID) uint64 { return c.eng.Tracker().VoteEpoch(item) }

// VotesNow returns item's currently effective vote table, ascending by
// site: the static assignment under StrategyQuorum and
// StrategyMissingWrites, the newest reassigned table under StrategyDynamic
// (sites outside the current majority basis hold no votes and are omitted).
func (c *Cluster) VotesNow(item ItemID) []VoteCopy { return c.eng.Tracker().VotesNow(item) }

// VoteTransitions returns the cumulative dynamic-voting reassignment
// counters: vote tables installed, and the subset that restored the full
// static copy set. Both are zero under the other strategies.
func (c *Cluster) VoteTransitions() (reassignments, restorations int) {
	return c.eng.Tracker().VoteTransitions()
}

// CopyAt returns the raw copy (value, version) stored at one site, without
// quorum checking — a debugging/verification helper.
func (c *Cluster) CopyAt(id SiteID, item ItemID) (value int64, version uint64, err error) {
	v, err := c.eng.Site(id).Store().Read(item)
	if err != nil {
		return 0, 0, err
	}
	return v.Value, v.Version, nil
}
