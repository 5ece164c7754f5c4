package engine

import (
	"errors"
	"fmt"

	"qcommit/internal/msg"
	"qcommit/internal/storage"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// Data-access errors, surfaced unchanged through the qcommit root API.
var (
	// ErrNoQuorum means the reachable, unlocked copies do not carry enough
	// votes for the operation under the current access mode.
	ErrNoQuorum = errors.New("qcommit: replica quorum not reachable")
	// ErrUnknownItem means the item has no replica configuration.
	ErrUnknownItem = errors.New("qcommit: unknown item")
	// ErrSiteDown means the site issuing the operation is itself down — a
	// crashed site cannot assemble quorums or serve reads.
	ErrSiteDown = errors.New("qcommit: requesting site is down")
)

// tally is the result of one vote-counting pass over an item's copies.
type tally struct {
	// got is the votes the counted copies hold toward the operation, need
	// the votes it must collect right now (voting.Tracker.Quorum: static
	// votes against r(x)/w(x), one vote for an optimistic missing-writes
	// read, or both under the newest dynamic vote table among the counted
	// copies, whose epoch is then set).
	got, need int
	epoch     uint64
	// copies holds the counted copies' (value, version) pairs when collect
	// is set — the read path's resolution candidates.
	copies []storage.Versioned
}

// ok reports whether the counted copies form the quorum.
func (t tally) ok() bool { return t.need > 0 && t.got >= t.need }

// tallyVotes is the one shared vote-counting pass behind ReadItem, CanRead
// and CanWrite: it walks item's copies, counts those that are up, in the
// requesting site's partition group, not locked by a pending transaction and
// — for reads — not carrying a missing write, and has the strategy tracker
// judge them. collect additionally gathers the counted copies' versioned
// values for read resolution.
func (cl *Cluster) tallyVotes(from types.SiteID, item types.ItemID, forWrite, collect bool) (tally, error) {
	ic, ok := cl.cfg.Assignment.Item(item)
	if !ok {
		return tally{}, fmt.Errorf("%w: %q", ErrUnknownItem, item)
	}
	if cl.net.Down(from) {
		return tally{}, fmt.Errorf("%w: %s", ErrSiteDown, from)
	}
	var t tally
	sites := make([]types.SiteID, 0, len(ic.Copies))
	for _, cp := range ic.Copies {
		if !cl.net.Connected(from, cp.Site) {
			continue
		}
		site := cl.sites.Get(cp.Site)
		if site.locks.Locked(item) {
			continue // held by a pending (possibly blocked) transaction
		}
		if !forWrite && !cl.tracker.Serves(item, cp.Site) {
			continue // stale copy: must not serve reads
		}
		if collect {
			v, err := site.store.Read(item)
			if err != nil {
				continue
			}
			t.copies = append(t.copies, v)
		}
		sites = append(sites, cp.Site)
	}
	t.got, t.need, t.epoch = cl.tracker.Quorum(item, sites, forWrite)
	return t, nil
}

// ReadItem performs a strategy-aware read of item as seen from the given
// site: it collects copies from up sites in the same partition group whose
// copies are not locked, requires the current read quorum — r(x) votes under
// StrategyQuorum, one fresh vote in optimistic missing-writes mode, a
// majority of the current vote table under StrategyDynamic — and returns the
// copy with the highest version number (which the constraint r+w > v, the
// absence of missing writes, or the table-majority intersection guarantees
// is the most recently committed one).
func (cl *Cluster) ReadItem(from types.SiteID, item types.ItemID) (storage.Versioned, error) {
	t, err := cl.tallyVotes(from, item, false, true)
	if err != nil {
		return storage.Versioned{}, err
	}
	if !t.ok() {
		under := ""
		if cl.cfg.Strategy == voting.StrategyDynamic {
			under = fmt.Sprintf(" under the epoch-%d table", t.epoch)
		}
		return storage.Versioned{}, fmt.Errorf("%w: item %q has %d free votes%s reachable from %s, read quorum is %d",
			ErrNoQuorum, item, t.got, under, from, t.need)
	}
	return storage.ResolveRead(t.copies)
}

// CanRead reports whether a read of item could assemble its current read
// quorum from the given site right now. Unlike ReadItem it resolves no
// values.
func (cl *Cluster) CanRead(from types.SiteID, item types.ItemID) bool {
	t, err := cl.tallyVotes(from, item, false, false)
	return err == nil && t.ok()
}

// CanWrite reports whether a transaction writing item could assemble a write
// quorum from the given site's partition right now (up, connected, unlocked
// copies carrying ≥ w(x) votes; under the dynamic strategy, a majority of
// the newest vote table installed at those copies).
func (cl *Cluster) CanWrite(from types.SiteID, item types.ItemID) bool {
	t, err := cl.tallyVotes(from, item, true, false)
	return err == nil && t.ok()
}

// Strategy returns the cluster's access strategy.
func (cl *Cluster) Strategy() voting.Strategy { return cl.cfg.Strategy }

// Tracker returns the access-strategy tracker: item modes, missing writes,
// vote tables and their transition counters.
func (cl *Cluster) Tracker() *voting.Tracker { return cl.tracker }

// peers is the Cluster seen as the tracker's view of the sites: the
// simulated network, the stores, and each site's kernel and lock table.
type peers Cluster

func (p *peers) Reachable(from, to types.SiteID) bool { return p.net.Connected(from, to) }

func (p *peers) Version(site types.SiteID, item types.ItemID) uint64 {
	v, err := p.sites.Get(site).store.Read(item)
	if err != nil {
		return 0
	}
	return v.Version
}

// WillApply: the site already committed txn (the kernel's outcome), or still
// holds its X lock on item.
func (p *peers) WillApply(site types.SiteID, txn types.TxnID, item types.ItemID) bool {
	s := p.sites.Get(site)
	o, _ := s.k.Outcome(txn)
	return o == types.OutcomeCommitted || s.locks.LockedBy(txn, item)
}

// pull sends the anti-entropy requests the tracker listed.
func (cl *Cluster) pull(pulls []voting.Pull) {
	for _, p := range pulls {
		cl.send(p.From, p.To, msg.CopyReq{Item: p.Item})
	}
}
