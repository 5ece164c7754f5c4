package voting

import (
	"sort"
	"sync"

	"qcommit/internal/types"
)

// This file implements dynamic vote reassignment (Jajodia & Mutchler,
// "Dynamic voting", SIGMOD 1987; Barbara, Garcia-Molina & Spauster,
// "Increasing availability under mutual exclusion constraints with dynamic
// vote reassignment", ACM TODS 1989) — the third partition-processing
// strategy the paper's conclusion invites, next to static Gifford quorums
// and the missing-writes scheme.
//
// Static quorums lose ground monotonically: every failed copy is a vote gone
// until that exact copy returns, and after enough failures no partition can
// muster w(x) of the ORIGINAL copy set. Dynamic voting instead lets the
// reachable majority of the copies re-anchor the quorum basis on itself:
// after each committed write (and at heal/restart catch-up) a new vote table
// is installed in which only the current survivor set holds votes, so
// subsequent quorums are majorities of the survivors. Two sequential
// failures of a 4-copy item leave static quorums write-blocked (2 < w=3)
// while the dynamic basis has shrunk 4 → 3 → 2 and the two survivors still
// form a majority of the 3-vote table.
//
// Safety rests on two rules, both enforced here:
//
//  1. Version-numbered tables. Every table carries an epoch; installing a
//     new table requires a group holding a MAJORITY OF VOTES UNDER THE
//     NEWEST TABLE ANY GROUP MEMBER HAS INSTALLED. Two majorities under the
//     same table intersect, and the intersection site carries any newer
//     table forward, so the newest-known table of a legal group is always
//     the globally newest one (induction over installs).
//  2. Epoch guards on quorum assembly. A quorum probe counts votes under
//     the newest table known WITHIN the probing group. A stale minority —
//     sites that missed one or more reassignments — holds few or no votes
//     under any table a majority could have installed, so it can never read,
//     write, or reassign. (Per Barbara et al. the reassignment is
//     "autonomous": the surviving majority installs the new table without a
//     group-consensus round; the epoch ordering alone arbitrates.)
//
// Quorums under a table are simple majorities of its total votes
// (w = total/2+1, r = total+1−w), the tightest choice satisfying the
// Gifford constraints, with static copy weights carried into each table
// restricted to the surviving sites.

// voteTable is one version of an item's vote assignment: the epoch (version
// number) and the votes per surviving site. Tables are immutable once
// installed; a reassignment builds a fresh one.
type voteTable struct {
	epoch uint64
	votes map[types.SiteID]int
	total int
}

// quorums returns the table's majority read/write quorums.
func (t *voteTable) quorums() (r, w int) {
	w = t.total/2 + 1
	r = t.total + 1 - w
	return r, w
}

// dynItem is the per-item reassignment state.
type dynItem struct {
	// installed[site] is the newest vote table the site has installed; a
	// site that missed reassignments (down or partitioned away) keeps its
	// older table — that lag is exactly what the epoch guard exploits.
	installed map[types.SiteID]*voteTable
	// current is the globally newest table (max epoch over installed).
	current *voteTable
}

// tableAmong returns the newest table any of the given sites has installed,
// or nil if none of them holds a copy.
func (di *dynItem) tableAmong(sites []types.SiteID) *voteTable {
	var best *voteTable
	for _, s := range sites {
		if t := di.installed[s]; t != nil && (best == nil || t.epoch > best.epoch) {
			best = t
		}
	}
	return best
}

// Dynamic tracks version-numbered vote tables per item on top of a static
// Assignment and answers quorum questions under the newest table a probing
// group knows. It is safe for concurrent use.
type Dynamic struct {
	asgn *Assignment

	mu    sync.Mutex
	items map[types.ItemID]*dynItem
	// reassignments counts installed tables; restorations counts the subset
	// that restored the full static copy set — the churn study's
	// reassignment-churn metric.
	reassignments int
	restorations  int
}

// NewDynamic wraps an assignment with dynamic vote reassignment. Every item
// starts at epoch 0 with its static vote table installed at every copy.
func NewDynamic(asgn *Assignment) *Dynamic {
	d := &Dynamic{asgn: asgn, items: make(map[types.ItemID]*dynItem)}
	asgn.ForEachItem(func(ic ItemConfig) {
		t := &voteTable{votes: make(map[types.SiteID]int, len(ic.Copies))}
		for _, cp := range ic.Copies {
			t.votes[cp.Site] = cp.Votes
			t.total += cp.Votes
		}
		di := &dynItem{installed: make(map[types.SiteID]*voteTable, len(ic.Copies)), current: t}
		for _, cp := range ic.Copies {
			di.installed[cp.Site] = t
		}
		d.items[ic.Item] = di
	})
	return d
}

// Epoch returns the version number of item's newest installed vote table
// (0 for an unknown item: no reassignment has ever happened).
func (d *Dynamic) Epoch(item types.ItemID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	di := d.items[item]
	if di == nil {
		return 0
	}
	return di.current.epoch
}

// VotesNow returns item's current vote table as copies, ascending by site.
// Sites outside the current majority basis hold zero votes and are omitted.
func (d *Dynamic) VotesNow(item types.ItemID) []Copy {
	d.mu.Lock()
	defer d.mu.Unlock()
	di := d.items[item]
	if di == nil {
		return nil
	}
	out := make([]Copy, 0, len(di.current.votes))
	for s, v := range di.current.votes {
		out = append(out, Copy{Site: s, Votes: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// InBasis reports whether site holds votes in item's current table.
func (d *Dynamic) InBasis(item types.ItemID, site types.SiteID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	di := d.items[item]
	return di != nil && di.current.votes[site] > 0
}

// StaleSites returns the copies of item outside the current majority basis
// — the sites that must catch up (copy sync + rejoin) before they count for
// quorums again — ascending.
func (d *Dynamic) StaleSites(item types.ItemID) []types.SiteID {
	ic, ok := d.asgn.Item(item)
	if !ok {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	di := d.items[item]
	if di == nil {
		return nil
	}
	var out []types.SiteID
	for _, cp := range ic.Copies {
		if di.current.votes[cp.Site] == 0 {
			out = append(out, cp.Site)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VotesAmong returns the votes the given sites jointly hold under the
// newest vote table any of them has installed, together with that table's
// majority read/write quorums and its epoch. This is the epoch-guarded
// tally behind CanRead/CanWrite: a stale group is measured against the
// newest table it knows, under which it cannot hold a majority (see the
// package comment's induction). Unknown items report all zeros.
func (d *Dynamic) VotesAmong(item types.ItemID, sites []types.SiteID) (got, r, w int, epoch uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	di := d.items[item]
	if di == nil {
		return 0, 0, 0, 0
	}
	t := di.tableAmong(sites)
	if t == nil {
		// No group member holds a copy: no votes; report the current
		// table's quorums for context.
		r, w = di.current.quorums()
		return 0, r, w, di.current.epoch
	}
	for _, s := range sites {
		got += t.votes[s]
	}
	r, w = t.quorums()
	return got, r, w, t.epoch
}

// CanRead reports whether the given sites can assemble a read quorum for
// item under the newest vote table they jointly know.
func (d *Dynamic) CanRead(item types.ItemID, sites []types.SiteID) bool {
	got, r, _, _ := d.VotesAmong(item, sites)
	return r > 0 && got >= r
}

// CanWrite reports whether the given sites can assemble a write quorum for
// item under the newest vote table they jointly know.
func (d *Dynamic) CanWrite(item types.ItemID, sites []types.SiteID) bool {
	got, _, w, _ := d.VotesAmong(item, sites)
	return w > 0 && got >= w
}

// Reassign installs a new vote table for item whose majority basis is
// exactly the given survivor set (intersected with the item's copy sites,
// carrying their static weights). It is legal only if the survivors hold a
// write majority under the newest table any of them has installed — the
// epoch guard that keeps a stale minority from re-anchoring quorums on
// itself — and it is a no-op when the survivor set already matches the
// current basis (steady-state commits cause no epoch churn). The engine
// calls it after each committed write with the copies the commit reached,
// and from the heal/restart catch-up path with the caught-up reachable
// copies. It reports whether a new table was installed.
func (d *Dynamic) Reassign(item types.ItemID, survivors []types.SiteID) bool {
	ic, ok := d.asgn.Item(item)
	if !ok {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	di := d.items[item]
	if di == nil {
		return false
	}
	t := di.tableAmong(survivors)
	if t == nil {
		return false
	}
	got := 0
	for _, s := range survivors {
		got += t.votes[s]
	}
	if _, w := t.quorums(); got < w {
		return false // stale or minority group: must not touch the table
	}
	if t.epoch != di.current.epoch {
		// Unreachable by the intersection argument (a majority under t
		// includes an installer of every newer table); kept as a guard so a
		// bookkeeping bug degrades to unavailability, never to split brain.
		return false
	}
	nt := &voteTable{epoch: t.epoch + 1, votes: make(map[types.SiteID]int, len(survivors))}
	surv := make(map[types.SiteID]bool, len(survivors))
	for _, s := range survivors {
		surv[s] = true
	}
	for _, cp := range ic.Copies {
		if surv[cp.Site] {
			nt.votes[cp.Site] = cp.Votes
			nt.total += cp.Votes
		}
	}
	if nt.total == 0 {
		return false
	}
	if len(nt.votes) == len(t.votes) {
		same := true
		//qlint:allow determinism pure equality scan: same flips at most once and the result is identical in any visit order
		for s, v := range nt.votes {
			if t.votes[s] != v {
				same = false
				break
			}
		}
		if same {
			return false // basis unchanged: no install, no epoch churn
		}
	}
	for s := range nt.votes {
		di.installed[s] = nt
	}
	di.current = nt
	d.reassignments++
	if len(nt.votes) == len(ic.Copies) {
		d.restorations++
	}
	return true
}

// Transitions returns the cumulative reassignment-churn counters: tables
// installed, and the subset that restored the full static copy set.
func (d *Dynamic) Transitions() (reassignments, restorations int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reassignments, d.restorations
}
