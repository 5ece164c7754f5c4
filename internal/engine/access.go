package engine

import (
	"errors"
	"fmt"
	"sort"

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
	// votes sums the static votes of up, connected, unlocked copies
	// reachable from the requesting site. Under the missing-writes
	// strategy, copies carrying missing writes are excluded for reads
	// (their values are stale) but counted for writes (a full-value write
	// heals them). Under the dynamic strategy the static sum is ignored;
	// quorums are judged over sites under the current vote table instead.
	votes int
	// sites lists the counted copy sites, in copy declaration order — the
	// group the dynamic strategy's epoch-guarded tables are consulted for.
	// Collected only under StrategyDynamic; the other strategies judge
	// quorums from the static vote sum alone.
	sites []types.SiteID
	// copies holds the (value, version) pairs behind votes when collect is
	// set — the read path's resolution candidates.
	copies []storage.Versioned
}

// tallyVotes is the one shared vote-counting pass behind ReadItem, CanRead
// and CanWrite: it walks item's copies and counts those that are up, in the
// requesting site's partition group, and not locked by a pending
// transaction. forWrite selects write semantics (stale copies count; a write
// installs a complete fresh value). collect additionally gathers the counted
// copies' versioned values for read resolution.
func (cl *Cluster) tallyVotes(from types.SiteID, item types.ItemID, forWrite, collect bool) (tally, voting.ItemConfig, error) {
	ic, ok := cl.cfg.Assignment.Item(item)
	if !ok {
		return tally{}, ic, fmt.Errorf("%w: %q", ErrUnknownItem, item)
	}
	if cl.net.Down(from) {
		return tally{}, ic, fmt.Errorf("%w: %s", ErrSiteDown, from)
	}
	var t tally
	for _, cp := range ic.Copies {
		if cl.net.Down(cp.Site) || !cl.net.Connected(from, cp.Site) {
			continue
		}
		site := cl.sites[cp.Site]
		if site.locks.Locked(item) {
			continue // held by a pending (possibly blocked) transaction
		}
		if !forWrite && cl.adaptive != nil && cl.adaptive.IsMissing(item, cp.Site) {
			continue // stale copy: must not serve reads
		}
		if collect {
			v, err := site.store.Read(item)
			if err != nil {
				continue
			}
			t.copies = append(t.copies, v)
		}
		t.votes += cp.Votes
		if cl.dynamic != nil {
			t.sites = append(t.sites, cp.Site)
		}
	}
	return t, ic, nil
}

// readNeed returns the votes a read of item must collect right now: r(x)
// under the quorum strategy and in pessimistic missing-writes mode, a single
// vote in optimistic mode (read-one).
func (cl *Cluster) readNeed(item types.ItemID, ic voting.ItemConfig) int {
	if cl.adaptive != nil && cl.adaptive.ModeOf(item) == voting.Optimistic {
		return 1
	}
	return ic.R
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
	t, ic, err := cl.tallyVotes(from, item, false, true)
	if err != nil {
		return storage.Versioned{}, err
	}
	if cl.dynamic != nil {
		got, need, _, epoch := cl.dynamic.VotesAmong(item, t.sites)
		if need == 0 || got < need {
			return storage.Versioned{}, fmt.Errorf("%w: item %q has %d free votes under the epoch-%d table reachable from %s, read quorum is %d",
				ErrNoQuorum, item, got, epoch, from, need)
		}
	} else if need := cl.readNeed(item, ic); t.votes < need {
		return storage.Versioned{}, fmt.Errorf("%w: item %q has %d free votes reachable from %s, read quorum is %d",
			ErrNoQuorum, item, t.votes, from, need)
	}
	return storage.ResolveRead(t.copies)
}

// CanRead reports whether a read of item could assemble its current read
// quorum from the given site right now. Unlike ReadItem it resolves no
// values.
func (cl *Cluster) CanRead(from types.SiteID, item types.ItemID) bool {
	t, ic, err := cl.tallyVotes(from, item, false, false)
	if err != nil {
		return false
	}
	if cl.dynamic != nil {
		return cl.dynamic.CanRead(item, t.sites)
	}
	return t.votes >= cl.readNeed(item, ic)
}

// CanWrite reports whether a transaction writing item could assemble a write
// quorum from the given site's partition right now (up, connected, unlocked
// copies carrying ≥ w(x) votes). Under the missing-writes strategy the
// threshold stays w(x): an optimistic write tries to reach every copy, but
// one that reaches at least the pessimistic quorum proceeds and demotes the
// item instead of failing. Under the dynamic strategy the threshold is a
// majority of the newest vote table installed at the reachable copies.
func (cl *Cluster) CanWrite(from types.SiteID, item types.ItemID) bool {
	t, ic, err := cl.tallyVotes(from, item, true, false)
	if err != nil {
		return false
	}
	if cl.dynamic != nil {
		return cl.dynamic.CanWrite(item, t.sites)
	}
	return t.votes >= ic.W
}

// Strategy returns the cluster's access strategy.
func (cl *Cluster) Strategy() voting.Strategy { return cl.cfg.Strategy }

// ItemMode returns item's current missing-writes mode. Under StrategyQuorum
// every item is permanently pessimistic (quorum operations only).
func (cl *Cluster) ItemMode(item types.ItemID) voting.Mode {
	if cl.adaptive == nil {
		return voting.Pessimistic
	}
	return cl.adaptive.ModeOf(item)
}

// MissingAt returns the sites currently carrying missing writes for item
// (always empty under StrategyQuorum), ascending.
func (cl *Cluster) MissingAt(item types.ItemID) []types.SiteID {
	if cl.adaptive == nil {
		return nil
	}
	return cl.adaptive.MissingAt(item)
}

// ModeTransitions returns the cumulative missing-writes mode transitions:
// demotions (optimistic→pessimistic) and restorations (the reverse). Both
// are zero under StrategyQuorum.
func (cl *Cluster) ModeTransitions() (demotions, restorations int) {
	if cl.adaptive == nil {
		return 0, 0
	}
	return cl.adaptive.Transitions()
}

// noteCommitApplied is the strategy bookkeeping hook doCommit calls after
// applying a committed writeset at one site. The first site to decide
// records, for every written item, which copies the commit actually reaches:
// a copy counts as reached only if its site is up, in the decider's
// partition group, and bound to apply the write — it is the decider itself,
// it already committed, or it still holds the transaction's X lock (voted,
// so the decision will reach it via COMMIT or the termination protocol).
// Under the missing-writes strategy, copies at down, partitioned-away or
// never-voted sites gain missing writes and the item demotes to pessimistic
// mode; under the dynamic strategy the reached set becomes the item's new
// majority basis (vote reassignment, epoch-guarded inside the tracker).
// Every subsequent local apply (a late COMMIT at a previously unreachable
// site) may resolve that site's missing writes or rejoin it to the basis,
// since an applied write installs the complete current value.
func (cl *Cluster) noteCommitApplied(s *Site, c *txnCtx) {
	if cl.adaptive == nil && cl.dynamic == nil {
		return
	}
	if !cl.recordedWrites[c.ID] {
		cl.recordedWrites[c.ID] = true
		for _, item := range c.WS.Items() {
			ic, ok := cl.cfg.Assignment.Item(item)
			if !ok {
				continue
			}
			reached := make([]types.SiteID, 0, len(ic.Copies))
			for _, cp := range ic.Copies {
				if cl.net.Down(cp.Site) || !cl.net.Connected(s.id, cp.Site) {
					continue
				}
				peer := cl.sites[cp.Site]
				po, _ := peer.k.Outcome(c.ID)
				willApply := cp.Site == s.id ||
					po == types.OutcomeCommitted ||
					peer.locks.LockedBy(c.ID, item)
				if willApply {
					reached = append(reached, cp.Site)
				}
			}
			if cl.adaptive != nil && len(reached) < len(ic.Copies) {
				cl.adaptive.DegradeExcept(item, reached)
			}
			if cl.dynamic != nil {
				cl.dynamic.Reassign(item, reached)
			}
		}
	}
	for _, item := range c.WS.Items() {
		if s.store.Has(item) {
			cl.maybeResolve(item, s.id)
			cl.maybeRejoin(item, s.id)
		}
	}
}

// maybeResolve clears site's missing write for item once its copy has caught
// up to the highest committed version cluster-wide (stores only ever hold
// committed values, so the max version across copies is that version).
func (cl *Cluster) maybeResolve(item types.ItemID, site types.SiteID) {
	if cl.adaptive == nil || !cl.adaptive.IsMissing(item, site) {
		return
	}
	ic, ok := cl.cfg.Assignment.Item(item)
	if !ok {
		return
	}
	var max uint64
	for _, cp := range ic.Copies {
		if v, err := cl.sites[cp.Site].store.Read(item); err == nil && v.Version > max {
			max = v.Version
		}
	}
	if v, err := cl.sites[site].store.Read(item); err == nil && v.Version >= max {
		cl.adaptive.ResolveMissing(item, site)
	}
}

// catchUpMissing starts an anti-entropy round for every copy still carrying
// a missing write: each such site (if up) asks its peer replicas for their
// current copies, and the CopyResp applies resolve the missing writes,
// restoring items to optimistic mode. Called on Heal; Restart's per-site
// syncCopies covers the crash/recovery path.
func (cl *Cluster) catchUpMissing() {
	if cl.adaptive == nil {
		return
	}
	cl.cfg.Assignment.ForEachItem(func(ic voting.ItemConfig) {
		for _, stale := range cl.adaptive.MissingAt(ic.Item) {
			if cl.net.Down(stale) {
				continue
			}
			for _, cp := range ic.Copies {
				if cp.Site != stale {
					cl.send(stale, cp.Site, msg.CopyReq{Item: ic.Item})
				}
			}
		}
	})
}

// catchUpDynamic is catchUpMissing's dynamic-strategy counterpart, called on
// Heal: every copy outside its item's current majority basis asks its peers
// for their current versions; the CopyResp applies bring it up to date and
// maybeRejoin folds it back into the basis via a reassignment. Restart's
// per-site syncCopies covers the crash/recovery path the same way.
func (cl *Cluster) catchUpDynamic() {
	if cl.dynamic == nil {
		return
	}
	cl.cfg.Assignment.ForEachItem(func(ic voting.ItemConfig) {
		for _, stale := range cl.dynamic.StaleSites(ic.Item) {
			if cl.net.Down(stale) {
				continue
			}
			for _, cp := range ic.Copies {
				if cp.Site != stale {
					cl.send(stale, cp.Site, msg.CopyReq{Item: ic.Item})
				}
			}
		}
	})
}

// maybeRejoin folds a caught-up copy back into its item's dynamic majority
// basis: once site's copy holds the highest version any copy holds, the
// reachable current copies (basis members plus the rejoiner) reassign votes
// to include it. The tracker's epoch guard makes the call safe to issue
// optimistically — a group not holding a majority under the newest table it
// knows cannot install anything. No-op for sites already in the basis and
// under the other strategies.
func (cl *Cluster) maybeRejoin(item types.ItemID, site types.SiteID) {
	if cl.dynamic == nil || cl.dynamic.InBasis(item, site) || cl.net.Down(site) {
		return
	}
	ic, ok := cl.cfg.Assignment.Item(item)
	if !ok {
		return
	}
	var max uint64
	versions := make(map[types.SiteID]uint64, len(ic.Copies))
	for _, cp := range ic.Copies {
		if v, err := cl.sites[cp.Site].store.Read(item); err == nil {
			versions[cp.Site] = v.Version
			if v.Version > max {
				max = v.Version
			}
		}
	}
	if versions[site] < max {
		return // not caught up yet; a later CopyResp will retry
	}
	group := make([]types.SiteID, 0, len(ic.Copies))
	for _, cp := range ic.Copies {
		if !cl.net.Down(cp.Site) && cl.net.Connected(site, cp.Site) && versions[cp.Site] == max {
			group = append(group, cp.Site)
		}
	}
	cl.dynamic.Reassign(item, group)
}

// VoteEpoch returns the version number of item's current dynamic vote table
// (always 0 under the static strategies: the initial table is never
// superseded).
func (cl *Cluster) VoteEpoch(item types.ItemID) uint64 {
	if cl.dynamic == nil {
		return 0
	}
	return cl.dynamic.Epoch(item)
}

// VotesNow returns item's currently effective vote table, ascending by
// site: the static assignment under StrategyQuorum and
// StrategyMissingWrites, the newest reassigned table under StrategyDynamic
// (sites outside the majority basis hold no votes and are omitted).
func (cl *Cluster) VotesNow(item types.ItemID) []voting.Copy {
	if cl.dynamic == nil {
		ic, ok := cl.cfg.Assignment.Item(item)
		if !ok {
			return nil
		}
		out := append([]voting.Copy(nil), ic.Copies...)
		sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
		return out
	}
	return cl.dynamic.VotesNow(item)
}

// VoteTransitions returns the cumulative dynamic-voting reassignment
// counters: vote tables installed, and the subset that restored the full
// static copy set. Both are zero under the other strategies.
func (cl *Cluster) VoteTransitions() (reassignments, restorations int) {
	if cl.dynamic == nil {
		return 0, 0
	}
	return cl.dynamic.Transitions()
}
