package voting

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qcommit/internal/types"
)

func dynFixture() *Dynamic {
	return NewDynamic(MustAssignment(Uniform("x", 3, 3, 1, 2, 3, 4, 5)))
}

func TestDynamicInitialState(t *testing.T) {
	d := dynFixture()
	if got := d.Epoch("x"); got != 0 {
		t.Errorf("initial epoch = %d, want 0", got)
	}
	want := []Copy{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}}
	if got := d.VotesNow("x"); !reflect.DeepEqual(got, want) {
		t.Errorf("VotesNow = %v, want %v", got, want)
	}
	if stale := d.StaleSites("x"); len(stale) != 0 {
		t.Errorf("fresh tracker has stale sites %v", stale)
	}
	// Majority of 5 single-vote copies: r = w = 3.
	if !d.CanWrite("x", []types.SiteID{1, 2, 3}) || d.CanWrite("x", []types.SiteID{1, 2}) {
		t.Error("initial write quorum should be exactly a 3-site majority")
	}
	if !d.CanRead("x", []types.SiteID{3, 4, 5}) || d.CanRead("x", []types.SiteID{4, 5}) {
		t.Error("initial read quorum should be exactly a 3-site majority")
	}
	// Unknown items never form quorums.
	if d.CanRead("nope", []types.SiteID{1, 2, 3}) || d.CanWrite("nope", []types.SiteID{1, 2, 3}) {
		t.Error("unknown item formed a quorum")
	}
	if d.Reassign("nope", []types.SiteID{1, 2, 3}) {
		t.Error("unknown item reassigned")
	}
}

// TestDynamicEpochMonotonicity: every successful reassignment bumps the
// epoch by exactly one, no-op calls leave it alone, and a site's installed
// epoch never exceeds the item's.
func TestDynamicEpochMonotonicity(t *testing.T) {
	d := dynFixture()
	steps := [][]types.SiteID{
		{1, 2, 3, 4},    // shrink: epoch 1
		{1, 2, 3, 4},    // same basis: no-op
		{1, 2, 3},       // shrink: epoch 2
		{1, 2},          // majority of 3: epoch 3
		{1, 2, 3, 4, 5}, // full restoration: epoch 4
	}
	wantEpochs := []uint64{1, 1, 2, 3, 4}
	wantInstalled := []bool{true, false, true, true, true}
	for i, s := range steps {
		installed := d.Reassign("x", s)
		if installed != wantInstalled[i] {
			t.Errorf("step %d (%v): installed = %v, want %v", i, s, installed, wantInstalled[i])
		}
		if got := d.Epoch("x"); got != wantEpochs[i] {
			t.Errorf("step %d: epoch = %d, want %d", i, got, wantEpochs[i])
		}
		for site := types.SiteID(1); site <= 5; site++ {
			if at := d.items["x"].installed[site].epoch; at > d.Epoch("x") {
				t.Errorf("step %d: site %v installed epoch %d > item epoch %d", i, site, at, d.Epoch("x"))
			}
		}
	}
	if re, ro := d.Transitions(); re != 4 || ro != 1 {
		t.Errorf("transitions = %d/%d, want 4 reassignments, 1 restoration", re, ro)
	}
}

// TestDynamicStaleMinorityRejected is the epoch-guard contract: sites that
// missed reassignments hold few or no votes under any table they know, so
// they can neither form quorums nor install tables of their own — even when
// they would hold a majority under the table they last saw.
func TestDynamicStaleMinorityRejected(t *testing.T) {
	d := dynFixture()
	if !d.Reassign("x", []types.SiteID{1, 2, 3, 4}) { // 5 → 4, epoch 1
		t.Fatal("first shrink rejected")
	}
	if !d.Reassign("x", []types.SiteID{1, 2, 3}) { // 4 → 3, epoch 2
		t.Fatal("second shrink rejected")
	}

	// {3,4,5} would be a majority of the ORIGINAL 5-site table, but site 3
	// carries the epoch-2 table (basis {1,2,3}, w=2) under which the group
	// holds only site 3's single vote.
	if d.CanWrite("x", []types.SiteID{3, 4, 5}) {
		t.Error("stale trio formed a write quorum under a superseded table")
	}
	// {4,5}: site 4's newest table is epoch 1 (basis {1,2,3,4}, w=3); the
	// pair holds 1 vote under it.
	if d.CanWrite("x", []types.SiteID{4, 5}) || d.CanRead("x", []types.SiteID{4, 5}) {
		t.Error("stale pair formed a quorum")
	}
	if d.Reassign("x", []types.SiteID{4, 5}) {
		t.Error("stale pair installed a table")
	}
	if got := d.Epoch("x"); got != 2 {
		t.Errorf("epoch moved to %d under stale-minority pressure", got)
	}
	if got := d.StaleSites("x"); !reflect.DeepEqual(got, []types.SiteID{4, 5}) {
		t.Errorf("StaleSites = %v, want [4 5]", got)
	}

	// A mixed group containing a current-basis majority may expand the
	// basis (the rejoin path): {2,3} know the epoch-2 table and hold 2 of
	// its 3 votes, so {2,3,4} may install epoch 3 with site 4 back in.
	if !d.Reassign("x", []types.SiteID{2, 3, 4}) {
		t.Fatal("legal rejoin rejected")
	}
	if got := d.Epoch("x"); got != 3 {
		t.Errorf("epoch after rejoin = %d, want 3", got)
	}
	if d.InBasis("x", 1) || !d.InBasis("x", 4) {
		t.Error("rejoin basis wrong: want site 4 in, site 1 out")
	}
	// Site 1 is now the stale one; alone it cannot do anything.
	if d.CanWrite("x", []types.SiteID{1}) || d.Reassign("x", []types.SiteID{1}) {
		t.Error("freshly stale site retained power")
	}
}

// TestDynamicWeightedVotes: static copy weights carry into reassigned
// tables, and majorities are counted in votes, not sites.
func TestDynamicWeightedVotes(t *testing.T) {
	d := NewDynamic(MustAssignment(ItemConfig{
		Item:   "x",
		Copies: []Copy{{1, 3}, {2, 1}, {3, 1}, {4, 1}, {5, 1}},
		R:      4, W: 4,
	}))
	// {1,2}: 4 of 7 votes — a majority despite being 2 of 5 sites.
	if !d.Reassign("x", []types.SiteID{1, 2}) {
		t.Fatal("weighted majority rejected")
	}
	want := []Copy{{1, 3}, {2, 1}}
	if got := d.VotesNow("x"); !reflect.DeepEqual(got, want) {
		t.Errorf("VotesNow = %v, want %v", got, want)
	}
	// New table totals 4 votes: w = 3, so site 1 alone (3 votes) suffices.
	if !d.CanWrite("x", []types.SiteID{1}) {
		t.Error("3-of-4 weighted write quorum rejected")
	}
	if d.CanWrite("x", []types.SiteID{2}) {
		t.Error("1-of-4 vote accepted as write quorum")
	}
}

func TestDynamicVotesAmongReportsEpoch(t *testing.T) {
	d := dynFixture()
	d.Reassign("x", []types.SiteID{1, 2, 3})
	// The epoch-1 table totals 3 votes: w = 2, r = 3+1-2 = 2.
	got, r, w, epoch := d.VotesAmong("x", []types.SiteID{1, 2})
	if got != 2 || r != 2 || w != 2 || epoch != 1 {
		t.Errorf("VotesAmong = (%d, %d, %d, %d), want (2, 2, 2, 1)", got, r, w, epoch)
	}
	// A group with no copy site reports zero votes against the current table.
	got, _, w, epoch = d.VotesAmong("x", []types.SiteID{9})
	if got != 0 || w != 2 || epoch != 1 {
		t.Errorf("copyless VotesAmong = (%d, w=%d, epoch=%d), want (0, 2, 1)", got, w, epoch)
	}
}

// TestDynamicConcurrentUse hammers the tracker from many goroutines; run
// with -race this is the concurrency contract.
func TestDynamicConcurrentUse(t *testing.T) {
	asgn := MustAssignment(
		Uniform("x", 3, 3, 1, 2, 3, 4, 5),
		Uniform("y", 2, 2, 1, 2, 3),
	)
	d := NewDynamic(asgn)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			item := types.ItemID("x")
			if g%2 == 1 {
				item = "y"
			}
			bases := [][]types.SiteID{{1, 2, 3, 4, 5}, {1, 2, 3}, {1, 2, 3, 4}, {2, 3}}
			for i := 0; i < 200; i++ {
				d.Reassign(item, bases[i%len(bases)])
				d.CanRead(item, bases[(i+1)%len(bases)])
				d.CanWrite(item, bases[(i+2)%len(bases)])
				d.Epoch(item)
				d.VotesNow(item)
				d.StaleSites(item)
				d.InBasis(item, types.SiteID(i%5+1))
				d.Transitions()
			}
		}()
	}
	wg.Wait()
	// Whatever the interleaving, the guard invariants hold.
	for _, item := range []types.ItemID{"x", "y"} {
		copies := d.VotesNow(item)
		total := 0
		for _, cp := range copies {
			total += cp.Votes
		}
		if len(copies) == 0 || total == 0 {
			t.Errorf("%s: empty basis after concurrent churn", item)
		}
		re, ro := d.Transitions()
		if re < ro {
			t.Errorf("more restorations (%d) than reassignments (%d)", ro, re)
		}
	}
}

func ExampleDynamic() {
	d := NewDynamic(MustAssignment(Uniform("x", 3, 3, 1, 2, 3, 4)))
	d.Reassign("x", []types.SiteID{1, 2, 3}) // a committed write missed site 4
	fmt.Println("epoch:", d.Epoch("x"))
	fmt.Println("survivor pair has write quorum:", d.CanWrite("x", []types.SiteID{1, 2}))
	fmt.Println("stale site alone:", d.CanWrite("x", []types.SiteID{4}))
	// Output:
	// epoch: 1
	// survivor pair has write quorum: true
	// stale site alone: false
}
