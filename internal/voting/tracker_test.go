package voting

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"qcommit/internal/types"
)

// fakePeers answers the three Peers questions from tables the test sets.
type fakePeers struct {
	down    map[types.SiteID]bool
	group   map[types.SiteID]int
	version map[types.SiteID]uint64 // every item a site holds sits at this version
	voted   map[types.SiteID]bool   // still X-locked by (or already applied) any asked transaction
}

func (p *fakePeers) Reachable(from, to types.SiteID) bool {
	return !p.down[from] && !p.down[to] && p.group[from] == p.group[to]
}
func (p *fakePeers) Version(site types.SiteID, _ types.ItemID) uint64 { return p.version[site] }
func (p *fakePeers) WillApply(site types.SiteID, _ types.TxnID, _ types.ItemID) bool {
	return p.voted[site]
}

// newPeers: sites 1-4 up, connected, at version 1, all voted.
func newPeers() *fakePeers {
	p := &fakePeers{
		down: map[types.SiteID]bool{}, group: map[types.SiteID]int{},
		version: map[types.SiteID]uint64{}, voted: map[types.SiteID]bool{},
	}
	for s := types.SiteID(1); s <= 4; s++ {
		p.version[s], p.voted[s] = 1, true
	}
	return p
}

// apply reports txn applied at site: its copy moves to txn's version first.
func (p *fakePeers) apply(tr *Tracker, site types.SiteID, txn types.TxnID, ws types.Writeset) {
	p.version[site] = uint64(txn) + 1
	tr.CommitApplied(site, txn, ws)
}

var wsX = types.Writeset{{Item: "x", Value: 1}}

func xOn4() *Assignment { return MustAssignment(Uniform("x", 2, 3, 1, 2, 3, 4)) }

func sites(ids ...types.SiteID) []types.SiteID { return ids }

func TestTrackerFirstDeciderRecordsReachOnce(t *testing.T) {
	t.Run("missing-writes", func(t *testing.T) {
		p := newPeers()
		p.voted[4] = false // never voted: the commit will not reach it
		tr := NewTracker(xOn4(), StrategyMissingWrites, p)
		p.apply(tr, 1, 10, wsX)
		if got := tr.MissingAt("x"); !reflect.DeepEqual(got, sites(4)) || tr.ItemMode("x") != Pessimistic {
			t.Fatalf("after the first decider: missing %v mode %v, want [site4] pessimistic", got, tr.ItemMode("x"))
		}
		// A later applier sees a different world (site 3 is down by now); it
		// must not record a second reach set.
		p.down[3] = true
		p.apply(tr, 2, 10, wsX)
		if got := tr.MissingAt("x"); !reflect.DeepEqual(got, sites(4)) {
			t.Fatalf("later applier re-recorded the reach set: missing %v", got)
		}
		// The straggler applies the commit at last: its copy is at the newest
		// version, the missing write resolves.
		p.apply(tr, 4, 10, wsX)
		if tr.ItemMode("x") != Optimistic {
			t.Fatalf("late apply did not resolve: missing %v", tr.MissingAt("x"))
		}
		if d, r := tr.ModeTransitions(); d != 1 || r != 1 {
			t.Errorf("transitions = %d/%d, want 1/1", d, r)
		}
	})
	t.Run("dynamic", func(t *testing.T) {
		p := newPeers()
		p.voted[4] = false
		tr := NewTracker(xOn4(), StrategyDynamic, p)
		p.apply(tr, 1, 10, wsX)
		if tr.VoteEpoch("x") != 1 || len(tr.VotesNow("x")) != 3 {
			t.Fatalf("after the first decider: epoch %d votes %v, want epoch 1 over 3 sites", tr.VoteEpoch("x"), tr.VotesNow("x"))
		}
		p.down[3] = true
		p.apply(tr, 2, 10, wsX)
		if tr.VoteEpoch("x") != 1 {
			t.Fatalf("later applier reassigned again: epoch %d", tr.VoteEpoch("x"))
		}
		p.down[3] = false
		p.version[3] = 11
		p.apply(tr, 4, 10, wsX)
		if tr.VoteEpoch("x") != 2 || len(tr.VotesNow("x")) != 4 {
			t.Fatalf("late apply did not rejoin: epoch %d votes %v", tr.VoteEpoch("x"), tr.VotesNow("x"))
		}
		if re, ro := tr.VoteTransitions(); re != 2 || ro != 1 {
			t.Errorf("transitions = %d/%d, want 2/1", re, ro)
		}
	})
}

func TestTrackerUnreachableCopyDemotesAndCatchUpRestores(t *testing.T) {
	for name, cut := range map[string]func(*fakePeers){
		"partitioned": func(p *fakePeers) { p.group[4] = 1 },
		"down":        func(p *fakePeers) { p.down[4] = true },
	} {
		t.Run(name, func(t *testing.T) {
			p := newPeers()
			cut(p) // site 4 voted (it holds the X lock) but the decision cannot reach it
			tr := NewTracker(xOn4(), StrategyMissingWrites, p)
			p.apply(tr, 1, 10, wsX)
			p.apply(tr, 2, 10, wsX)
			p.apply(tr, 3, 10, wsX)
			if got := tr.MissingAt("x"); !reflect.DeepEqual(got, sites(4)) {
				t.Fatalf("missing = %v, want [site4]", got)
			}
			// Back in touch, an anti-entropy install below the newest version
			// changes nothing ...
			p.group[4], p.down[4] = 0, false
			p.version[4] = 5
			tr.CopyInstalled(4, "x")
			if tr.ItemMode("x") != Pessimistic {
				t.Fatal("copy below the newest version shed its missing write")
			}
			// ... the one that reaches it restores optimistic mode.
			p.version[4] = 11
			tr.CopyInstalled(4, "x")
			if tr.ItemMode("x") != Optimistic {
				t.Fatalf("caught-up copy still missing: %v", tr.MissingAt("x"))
			}
		})
	}
}

func TestTrackerRejoinRefusedBelowMaxVersion(t *testing.T) {
	p := newPeers()
	p.down[4] = true
	tr := NewTracker(xOn4(), StrategyDynamic, p)
	p.apply(tr, 1, 10, wsX)
	p.apply(tr, 2, 10, wsX)
	p.apply(tr, 3, 10, wsX)
	if tr.VoteEpoch("x") != 1 {
		t.Fatalf("epoch = %d, want 1", tr.VoteEpoch("x"))
	}
	// Still down: an install (it cannot happen, but the guard is the
	// tracker's) must not rejoin.
	p.version[4] = 11
	tr.CopyInstalled(4, "x")
	if tr.VoteEpoch("x") != 1 {
		t.Fatal("down site rejoined the basis")
	}
	p.down[4] = false
	p.version[4] = 5
	tr.CopyInstalled(4, "x")
	if tr.VoteEpoch("x") != 1 || len(tr.VotesNow("x")) != 3 {
		t.Fatalf("stale copy rejoined: epoch %d votes %v", tr.VoteEpoch("x"), tr.VotesNow("x"))
	}
	p.version[4] = 11
	tr.CopyInstalled(4, "x")
	if tr.VoteEpoch("x") != 2 || len(tr.VotesNow("x")) != 4 {
		t.Fatalf("caught-up copy did not rejoin: epoch %d votes %v", tr.VoteEpoch("x"), tr.VotesNow("x"))
	}
	// A site that holds no copy of the item is never a rejoiner.
	tr.CopyInstalled(9, "x")
	if tr.VoteEpoch("x") != 2 {
		t.Fatal("non-copy site reassigned votes")
	}
}

// pullAsgn declares y's copies out of site order, so copy order and ascending
// order differ.
func pullAsgn() *Assignment {
	y := ItemConfig{Item: "y", Copies: []Copy{{Site: 3, Votes: 1}, {Site: 1, Votes: 1}, {Site: 2, Votes: 1}, {Site: 4, Votes: 1}}, R: 2, W: 3}
	return MustAssignment(Uniform("x", 2, 3, 1, 2, 3, 4), y, Uniform("z", 2, 3, 1, 2, 3, 4))
}

func TestTrackerRestartPullsWrittenOnlyInCopyOrder(t *testing.T) {
	holdsAll := func(types.ItemID) bool { return true }
	for _, s := range []Strategy{StrategyQuorum, StrategyMissingWrites, StrategyDynamic} {
		tr := NewTracker(pullAsgn(), s, newPeers())
		if got := tr.RestartPulls(2, holdsAll); got != nil {
			t.Errorf("%v: nothing written yet, pulls = %v", s, got)
		}
		tr.CommitApplied(1, 10, types.Writeset{{Item: "y", Value: 1}})
		want := []Pull{{2, 3, "y"}, {2, 1, "y"}, {2, 4, "y"}}
		if got := tr.RestartPulls(2, holdsAll); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: pulls = %v, want %v", s, got, want)
		}
		tr.CommitApplied(1, 11, types.Writeset{{Item: "z", Value: 1}, {Item: "x", Value: 1}})
		got := tr.RestartPulls(2, holdsAll)
		if len(got) != 9 || got[0].Item != "x" || got[3].Item != "y" || got[6].Item != "z" {
			t.Errorf("%v: pulls are not in ascending item order: %v", s, got)
		}
		if got := tr.RestartPulls(2, func(item types.ItemID) bool { return item != "y" }); len(got) != 6 || got[3].Item != "z" {
			t.Errorf("%v: pulls for an item the site does not hold: %v", s, got)
		}
	}
	var none *Tracker
	if got := none.RestartPulls(2, holdsAll); got != nil {
		t.Errorf("nil tracker pulls = %v", got)
	}
	none.CommitApplied(1, 1, wsX) // no-ops, no panic
	none.CopyInstalled(1, "x")
}

func TestTrackerHealPullsOrder(t *testing.T) {
	p := newPeers()
	p.group[3], p.group[4] = 1, 1 // the commit reaches 1 and 2 only
	tr := NewTracker(pullAsgn(), StrategyMissingWrites, p)
	p.apply(tr, 1, 10, types.Writeset{{Item: "y", Value: 1}, {Item: "x", Value: 1}})
	p.group[3], p.group[4] = 0, 0
	p.down[4] = true // a down site asks nothing
	want := []Pull{
		{3, 1, "x"}, {3, 2, "x"}, {3, 4, "x"}, // items in assignment order, not writeset order
		{3, 1, "y"}, {3, 2, "y"}, {3, 4, "y"}, // peers in copy order (y: 3,1,2,4)
	}
	if got := tr.HealPulls(); !reflect.DeepEqual(got, want) {
		t.Errorf("heal pulls = %v, want %v", got, want)
	}
	if got := NewTracker(pullAsgn(), StrategyQuorum, p).HealPulls(); got != nil {
		t.Errorf("static strategy heal pulls = %v", got)
	}
}

func TestTrackerConcurrentAppliersRecordOnce(t *testing.T) {
	p := newPeers()
	p.down[4] = true
	p.version[1], p.version[2], p.version[3] = 11, 11, 11
	tr := NewTracker(xOn4(), StrategyDynamic, p)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(at types.SiteID) {
			defer wg.Done()
			tr.CommitApplied(at, 10, wsX)
		}(types.SiteID(1 + i%3))
	}
	wg.Wait()
	if e := tr.VoteEpoch("x"); e != 1 {
		t.Errorf("epoch after 24 concurrent applies of one transaction = %d, want 1", e)
	}
	if re, _ := tr.VoteTransitions(); re != 1 {
		t.Errorf("reassignments = %d, want 1", re)
	}
}

func TestTrackerQuorum(t *testing.T) {
	check := func(tr *Tracker, item types.ItemID, s []types.SiteID, write bool, got, need int) {
		t.Helper()
		if g, n, _ := tr.Quorum(item, s, write); g != got || n != need {
			t.Errorf("Quorum(%s, %v, write=%v) = %d of %d, want %d of %d", item, s, write, g, n, got, need)
		}
	}
	static := NewTracker(xOn4(), StrategyQuorum, newPeers())
	check(static, "x", sites(1, 2), false, 2, 2)
	check(static, "x", sites(1, 2), true, 2, 3)
	check(static, "ghost", sites(1), false, 0, 0) // need 0: nothing may touch it
	if static.ItemMode("x") != Pessimistic || static.VoteEpoch("x") != 0 || len(static.VotesNow("x")) != 4 {
		t.Error("static strategy accessors wrong")
	}

	p := newPeers()
	mw := NewTracker(xOn4(), StrategyMissingWrites, p)
	// Optimistic: one copy serves a read (read-one); a write still needs w —
	// it tries every copy, but reaching w is enough to proceed and demote.
	check(mw, "x", sites(3), false, 1, 1)
	check(mw, "x", sites(1, 2, 3), true, 3, 3)
	p.voted[4] = false
	p.apply(mw, 1, 10, wsX)
	// Pessimistic: reads need r among copies that serve; site 4 is stale.
	if mw.Serves("x", 4) || !mw.Serves("x", 3) {
		t.Error("Serves: the stale copy must not serve reads, the fresh one must")
	}
	check(mw, "x", sites(3), false, 1, 2)
	check(mw, "x", sites(2, 3), false, 2, 2)
	check(mw, "x", sites(2, 3, 4), true, 3, 3) // stale copies count for writes
	check(mw, "ghost", sites(1), false, 0, 0)
	// Caught up: read-one again.
	p.apply(mw, 4, 10, wsX)
	check(mw, "x", sites(4), false, 1, 1)

	pd := newPeers()
	pd.voted[4] = false
	dv := NewTracker(xOn4(), StrategyDynamic, pd)
	pd.apply(dv, 1, 10, wsX) // basis {1,2,3}: 3 votes, r=2 w=2
	if got, need, epoch := dv.Quorum("x", sites(1, 2), true); got != 2 || need != 2 || epoch != 1 {
		t.Errorf("dynamic write quorum = %d of %d at epoch %d, want 2 of 2 at epoch 1", got, need, epoch)
	}
	// The stale site alone knows only the epoch-0 table: 1 vote of 4.
	if got, need, epoch := dv.Quorum("x", sites(4), false); got != 1 || need != 2 || epoch != 0 {
		t.Errorf("stale group read quorum = %d of %d at epoch %d, want 1 of 2 at epoch 0", got, need, epoch)
	}
	if !dv.Serves("x", 4) {
		t.Error("Serves is a missing-writes question; dynamic staleness is judged by the epoch guard")
	}
}

// heldWalkPulls is the restart walk RestartPulls replaced: over the items
// the site holds, ascending, keep those some commit wrote. Its send order is
// what the goldens pin.
func heldWalkPulls(asgn *Assignment, site types.SiteID, held []types.ItemID, written map[types.ItemID]bool) []Pull {
	held = slices.Clone(held)
	slices.Sort(held)
	var out []Pull
	for _, item := range held {
		if ic, ok := asgn.Item(item); ok && written[item] {
			out = appendPulls(out, site, ic)
		}
	}
	return out
}

// TestTrackerRestartPullsMatchHeldWalk: over random placements, written
// sets and held sets, walking the sorted written set yields exactly the
// pulls — content and order — of the walk over the site's held items.
func TestTrackerRestartPullsMatchHeldWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		nSites := 1 + rng.Intn(6)
		var ics []ItemConfig
		var universe []types.ItemID
		for i := 0; i < 1+rng.Intn(30); i++ {
			// Unpadded names, so ascending string order is not numeric order.
			item := types.ItemID(fmt.Sprintf("i%d", rng.Intn(200)))
			if slices.Contains(universe, item) {
				continue
			}
			universe = append(universe, item)
			if rng.Intn(8) == 0 {
				continue // held or written, but not in the assignment
			}
			perm := rng.Perm(nSites)
			copies := make([]types.SiteID, 1+rng.Intn(nSites))
			for j := range copies {
				copies[j] = types.SiteID(perm[j] + 1)
			}
			w := len(copies)/2 + 1
			ics = append(ics, Uniform(item, len(copies)-w+1, w, copies...))
		}
		asgn := MustAssignment(ics...)
		s := []Strategy{StrategyQuorum, StrategyMissingWrites, StrategyDynamic}[rng.Intn(3)]
		tr := NewTracker(asgn, s, newPeers())
		written := make(map[types.ItemID]bool)
		commits := types.TxnID(rng.Intn(8))
		for txn := types.TxnID(1); txn <= commits; txn++ {
			var ws types.Writeset
			for k := 0; k < 1+rng.Intn(3); k++ {
				item := universe[rng.Intn(len(universe))]
				ws = append(ws, types.Update{Item: item, Value: int64(txn)})
				written[item] = true
			}
			tr.CommitApplied(1, txn, ws)
		}
		site := types.SiteID(1 + rng.Intn(nSites))
		held := make(map[types.ItemID]bool)
		var heldList []types.ItemID
		for _, item := range universe {
			if rng.Intn(3) != 0 {
				held[item] = true
				heldList = append(heldList, item)
			}
		}
		got := tr.RestartPulls(site, func(item types.ItemID) bool { return held[item] })
		if want := heldWalkPulls(asgn, site, heldList, written); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%v): pulls = %v, want %v", trial, s, got, want)
		}
	}
}
