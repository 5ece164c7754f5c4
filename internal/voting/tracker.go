package voting

//qlint:deterministic

import (
	"slices"
	"sort"
	"sync"

	"qcommit/internal/types"
)

// Peers is everything a Tracker knows about sites other than its caller:
// three questions, answered by whoever hosts the sites. The engine and the
// live cluster read shared memory; a host without it would have to carry
// exactly these facts on messages.
type Peers interface {
	// Reachable reports whether a message from one site reaches the other
	// right now: both up and in the same partition group. Reachable(s, s)
	// is therefore "s is up".
	Reachable(from, to types.SiteID) bool
	// Version returns the version of site's copy of item (0 if it holds
	// none). Stores hold committed values only.
	Version(site types.SiteID, item types.ItemID) uint64
	// WillApply reports whether site is bound to install txn's write of
	// item: it has committed or applied txn, or still holds txn's X lock on
	// item (it voted, so COMMIT or the termination protocol will reach it).
	WillApply(site types.SiteID, txn types.TxnID, item types.ItemID) bool
}

// Pull is one anti-entropy request a site owes: From asks To for its copy of
// Item (a msg.CopyReq).
type Pull struct {
	From, To types.SiteID
	Item     types.ItemID
}

// Tracker is the access-strategy layer over a static Assignment, written
// once for every host: which copies a committed write reached, when a copy
// has caught up, what a healed or restarted site must pull, and which quorum
// an operation needs right now. It drives an Adaptive under
// StrategyMissingWrites, a Dynamic under StrategyDynamic, and under
// StrategyQuorum only remembers which items were ever written (which bounds
// restart anti-entropy under every strategy).
//
// A Tracker is safe for concurrent use and never calls Peers while holding
// its mutex. CommitApplied, CopyInstalled and RestartPulls are no-ops on a
// nil *Tracker: a host that cannot answer the Peers questions (one process
// per site) passes nil and runs the static strategy.
type Tracker struct {
	asgn     *Assignment
	peers    Peers
	adaptive *Adaptive // StrategyMissingWrites only
	dynamic  *Dynamic  // StrategyDynamic only

	mu sync.Mutex
	// recorded marks the transactions whose commit-time reach set has been
	// recorded: every site applies the commit, the bookkeeping runs once.
	// Never pruned — a late apply of an old commit (a site down for long)
	// must not record a second reach set — at the cost each site kernel's
	// outcome table already pays, one entry per transaction. Stays empty
	// under StrategyQuorum.
	recorded map[types.TxnID]bool
	// written lists the items some committed transaction wrote, ascending.
	// Every copy of any other item still sits at its initial version.
	written []types.ItemID
}

// NewTracker builds the tracker of one cluster. s must be Valid.
func NewTracker(asgn *Assignment, s Strategy, peers Peers) *Tracker {
	t := &Tracker{
		asgn: asgn, peers: peers,
		recorded: make(map[types.TxnID]bool),
	}
	switch s {
	case StrategyMissingWrites:
		t.adaptive = NewAdaptive(asgn)
	case StrategyDynamic:
		t.dynamic = NewDynamic(asgn)
	}
	return t
}

// static reports whether the tracker runs the static quorum strategy.
func (t *Tracker) static() bool { return t.adaptive == nil && t.dynamic == nil }

// CommitApplied is called after site at applied txn's committed writeset.
// The first site to decide records, for every written item, which copies the
// commit reaches: those reachable from the decider and bound to apply the
// write (the decider itself, or Peers.WillApply). Under the missing-writes
// strategy the other copies gain missing writes and the item demotes to
// pessimistic mode; under the dynamic strategy the reached set becomes the
// item's new majority basis (epoch-guarded inside Dynamic). Every apply,
// first or late, may also be the one that brings at's own copy up to date.
func (t *Tracker) CommitApplied(at types.SiteID, txn types.TxnID, ws types.Writeset) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, u := range ws {
		if i, found := slices.BinarySearch(t.written, u.Item); !found {
			t.written = slices.Insert(t.written, i, u.Item)
		}
	}
	first := !t.static() && !t.recorded[txn]
	if first {
		t.recorded[txn] = true
	}
	t.mu.Unlock()
	if t.static() {
		return
	}
	items := ws.Items()
	if first {
		for _, item := range items {
			ic, ok := t.asgn.Item(item)
			if !ok {
				continue
			}
			reached := make([]types.SiteID, 0, len(ic.Copies))
			for _, cp := range ic.Copies {
				if t.peers.Reachable(at, cp.Site) && (cp.Site == at || t.peers.WillApply(cp.Site, txn, item)) {
					reached = append(reached, cp.Site)
				}
			}
			if t.adaptive != nil && len(reached) < len(ic.Copies) {
				t.adaptive.DegradeExcept(item, reached)
			}
			if t.dynamic != nil {
				t.dynamic.Reassign(item, reached)
			}
		}
	}
	for _, item := range items {
		t.CopyInstalled(at, item)
	}
}

// CopyInstalled is called after site at installed a version of item (a
// committed write or an anti-entropy CopyResp). Once at's copy holds the
// highest version any copy holds it has caught up: it sheds its missing
// write, or the reachable copies at that version — the basis members plus
// the rejoiner — reassign votes to include it. Dynamic's epoch guard makes
// that call safe to issue optimistically: a group without a majority under
// the newest table it knows installs nothing.
func (t *Tracker) CopyInstalled(at types.SiteID, item types.ItemID) {
	if t == nil || t.static() {
		return
	}
	ic, _ := t.asgn.Item(item)
	if ic.VotesAt(at) == 0 {
		return // at holds no copy of item
	}
	switch {
	case t.adaptive != nil && t.adaptive.IsMissing(item, at):
	case t.dynamic != nil && !t.dynamic.InBasis(item, at) && t.peers.Reachable(at, at):
	default:
		return
	}
	versions := make([]uint64, len(ic.Copies))
	var max, mine uint64
	for i, cp := range ic.Copies {
		versions[i] = t.peers.Version(cp.Site, item)
		if versions[i] > max {
			max = versions[i]
		}
		if cp.Site == at {
			mine = versions[i]
		}
	}
	if mine < max {
		return // not caught up yet; a later install retries
	}
	if t.adaptive != nil {
		t.adaptive.ResolveMissing(item, at)
		return
	}
	group := make([]types.SiteID, 0, len(ic.Copies))
	for i, cp := range ic.Copies {
		if versions[i] == max && t.peers.Reachable(at, cp.Site) {
			group = append(group, cp.Site)
		}
	}
	t.dynamic.Reassign(item, group)
}

// HealPulls lists the anti-entropy requests a healed partition calls for,
// in send order: every up copy still carrying a missing write (or outside
// its item's majority basis) asks each peer replica for its current copy;
// the installs that follow restore optimistic mode (or the full basis).
// Items in assignment order, stale sites ascending, peers in copy order.
func (t *Tracker) HealPulls() []Pull {
	if t.static() {
		return nil
	}
	var out []Pull
	t.asgn.ForEachItem(func(ic ItemConfig) {
		var stale []types.SiteID
		if t.adaptive != nil {
			stale = t.adaptive.MissingAt(ic.Item)
		} else {
			stale = t.dynamic.StaleSites(ic.Item)
		}
		for _, s := range stale {
			if t.peers.Reachable(s, s) {
				out = appendPulls(out, s, ic)
			}
		}
	})
	return out
}

// RestartPulls lists the anti-entropy requests a restarted site owes, in
// send order: for each item some commit ever wrote that the site holds
// (holds reports it), in ascending item order, one request to every peer
// replica in copy order — so a site that was down across commits catches up
// even on transactions it never voted on, and asks nothing about items no
// commit touched. The walk costs the written items, not the site's copies.
func (t *Tracker) RestartPulls(site types.SiteID, holds func(types.ItemID) bool) []Pull {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	written := slices.Clone(t.written)
	t.mu.Unlock()
	var out []Pull
	for _, item := range written {
		if ic, ok := t.asgn.Item(item); ok && holds(item) {
			out = appendPulls(out, site, ic)
		}
	}
	return out
}

func appendPulls(out []Pull, from types.SiteID, ic ItemConfig) []Pull {
	for _, cp := range ic.Copies {
		if cp.Site != from {
			out = append(out, Pull{From: from, To: cp.Site, Item: ic.Item})
		}
	}
	return out
}

// Serves reports whether site's copy of item may serve a read right now: a
// copy carrying a missing write is stale and must not. (It still counts
// toward writes — a write installs a complete fresh value and heals it.)
func (t *Tracker) Serves(item types.ItemID, site types.SiteID) bool {
	return t.adaptive == nil || !t.adaptive.IsMissing(item, site)
}

// Quorum judges a read (or, with write set, a write) of item against the
// copy sites an operation can use: got is the votes they hold, need the votes
// the operation must collect right now (0 for an unknown item, which nothing
// may touch). Statically need is r(x) / w(x). Under StrategyMissingWrites an
// optimistic item is read-one, and a write needs w(x) in either mode: an
// optimistic write tries every copy, but one that reaches w(x) proceeds and
// demotes the item instead of failing. Under StrategyDynamic both sides are
// counted under the newest vote table any of the sites has installed, whose
// epoch is returned (0 otherwise).
func (t *Tracker) Quorum(item types.ItemID, sites []types.SiteID, write bool) (got, need int, epoch uint64) {
	if t.dynamic != nil {
		got, r, w, epoch := t.dynamic.VotesAmong(item, sites)
		if write {
			return got, w, epoch
		}
		return got, r, epoch
	}
	ic, known := t.asgn.Item(item)
	switch {
	case write:
		need = ic.W
	case known && t.adaptive != nil && t.adaptive.ModeOf(item) == Optimistic:
		need = 1 // read-one
	default:
		need = ic.R
	}
	return t.asgn.VotesFor(item, sites), need, 0
}

// ItemMode returns item's current missing-writes mode. Under the other
// strategies every item is permanently pessimistic (quorum operations only).
func (t *Tracker) ItemMode(item types.ItemID) Mode {
	if t.adaptive == nil {
		return Pessimistic
	}
	return t.adaptive.ModeOf(item)
}

// MissingAt returns the sites currently carrying missing writes for item,
// ascending (always empty outside StrategyMissingWrites).
func (t *Tracker) MissingAt(item types.ItemID) []types.SiteID {
	if t.adaptive == nil {
		return nil
	}
	return t.adaptive.MissingAt(item)
}

// ModeTransitions returns the cumulative missing-writes mode transitions:
// demotions (optimistic→pessimistic) and restorations (the reverse). Both
// are zero outside StrategyMissingWrites.
func (t *Tracker) ModeTransitions() (demotions, restorations int) {
	if t.adaptive == nil {
		return 0, 0
	}
	return t.adaptive.Transitions()
}

// VoteEpoch returns the version number of item's current dynamic vote table
// (always 0 under the static strategies: the initial table is never
// superseded).
func (t *Tracker) VoteEpoch(item types.ItemID) uint64 {
	if t.dynamic == nil {
		return 0
	}
	return t.dynamic.Epoch(item)
}

// VotesNow returns item's currently effective vote table, ascending by
// site: the static assignment under StrategyQuorum and
// StrategyMissingWrites, the newest reassigned table under StrategyDynamic
// (sites outside the majority basis hold no votes and are omitted).
func (t *Tracker) VotesNow(item types.ItemID) []Copy {
	if t.dynamic != nil {
		return t.dynamic.VotesNow(item)
	}
	ic, ok := t.asgn.Item(item)
	if !ok {
		return nil
	}
	out := append([]Copy(nil), ic.Copies...)
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// VoteTransitions returns the cumulative dynamic-voting reassignment
// counters: vote tables installed, and the subset that restored the full
// static copy set. Both are zero under the other strategies.
func (t *Tracker) VoteTransitions() (reassignments, restorations int) {
	if t.dynamic == nil {
		return 0, 0
	}
	return t.dynamic.Transitions()
}
