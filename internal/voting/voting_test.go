package voting

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"qcommit/internal/types"
)

func TestItemConfigValidate(t *testing.T) {
	ok := Uniform("x", 2, 3, 1, 2, 3, 4)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		ic   ItemConfig
	}{
		{"no copies", ItemConfig{Item: "x", R: 1, W: 1}},
		{"zero votes", ItemConfig{Item: "x", Copies: []Copy{{Site: 1, Votes: 0}}, R: 1, W: 1}},
		{"dup site", ItemConfig{Item: "x", Copies: []Copy{{Site: 1, Votes: 1}, {Site: 1, Votes: 1}}, R: 1, W: 2}},
		{"r+w too small", Uniform("x", 1, 3, 1, 2, 3, 4)}, // 1+3 = 4 = v
		{"w too small", Uniform("x", 3, 2, 1, 2, 3, 4)},   // w=2 ≤ v/2
		{"r exceeds v", Uniform("x", 5, 4, 1, 2, 3, 4)},   // r > v
		{"zero quorum", Uniform("x", 0, 3, 1, 2, 3, 4)},
	}
	for _, c := range cases {
		if err := c.ic.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestItemConfigAccessors(t *testing.T) {
	ic := ItemConfig{Item: "x", Copies: []Copy{{Site: 3, Votes: 2}, {Site: 1, Votes: 1}}, R: 2, W: 2}
	if ic.TotalVotes() != 3 {
		t.Errorf("TotalVotes = %d", ic.TotalVotes())
	}
	if ic.VotesAt(3) != 2 || ic.VotesAt(1) != 1 || ic.VotesAt(9) != 0 {
		t.Error("VotesAt wrong")
	}
	sites := ic.Sites()
	if len(sites) != 2 || sites[0] != 1 || sites[1] != 3 {
		t.Errorf("Sites = %v, want ascending", sites)
	}
}

func TestAssignmentConstruction(t *testing.T) {
	if _, err := NewAssignment(Uniform("x", 2, 3, 1, 2, 3, 4), Uniform("x", 2, 3, 5, 6, 7, 8)); err == nil {
		t.Error("duplicate item accepted")
	}
	if _, err := NewAssignment(Uniform("x", 1, 3, 1, 2, 3, 4)); err == nil {
		t.Error("invalid config accepted")
	}
	a := MustAssignment(Uniform("x", 2, 3, 1, 2, 3, 4), Uniform("y", 2, 3, 5, 6, 7, 8))
	items := a.Items()
	if len(items) != 2 || items[0] != "x" || items[1] != "y" {
		t.Errorf("Items = %v", items)
	}
	if _, ok := a.Item("x"); !ok {
		t.Error("Item lookup failed")
	}
	if _, ok := a.Item("z"); ok {
		t.Error("absent item found")
	}
	if a.ReadQuorum("x") != 2 || a.WriteQuorum("x") != 3 || a.TotalVotes("x") != 4 {
		t.Error("quorum accessors wrong")
	}
	if a.VotesAt(2, "x") != 1 || a.VotesAt(2, "y") != 0 {
		t.Error("VotesAt wrong")
	}
	// Sites: every copy site once, ascending, whatever the copy order.
	b := MustAssignment(Uniform("x", 2, 2, 7, 3, 5), Uniform("y", 2, 2, 5, 1, 3))
	if got := b.Sites(); !reflect.DeepEqual(got, []types.SiteID{1, 3, 5, 7}) {
		t.Errorf("Sites = %v", got)
	}
	b.Sites()[0] = 9
	if b.Sites()[0] != 1 {
		t.Error("Sites aliases the assignment")
	}
}

func TestMustAssignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssignment should panic on invalid input")
		}
	}()
	MustAssignment(Uniform("x", 1, 1, 1, 2, 3))
}

// refParticipants is Participants as first written: a map of sites, then
// sort.Slice.
func refParticipants(a *Assignment, items []types.ItemID) []types.SiteID {
	seen := make(map[types.SiteID]bool)
	for _, x := range items {
		for _, c := range a.items[x].Copies {
			seen[c.Site] = true
		}
	}
	out := make([]types.SiteID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestParticipantsMatchesMapReference pins Participants to the map-based
// reference, nil-ness included, over repeated and unknown items, empty and
// nil input, and random item lists on a random placement wide enough to
// overflow the stack buffer.
func TestParticipantsMatchesMapReference(t *testing.T) {
	a := MustAssignment(Uniform("x", 2, 3, 1, 2, 3, 4), Uniform("y", 2, 3, 3, 5, 6, 7), Uniform("z", 1, 1, 9))
	cases := [][]types.ItemID{
		nil,
		{},
		{"x"},
		{"x", "x"},
		{"y", "x", "y"},
		{"nope"},
		{"nope", "z", "nope"},
		{"z", "y", "x"},
	}
	rng := rand.New(rand.NewSource(3))
	var configs []ItemConfig
	for i := 0; i < 40; i++ {
		perm := rng.Perm(64)[:1+rng.Intn(9)]
		sites := make([]types.SiteID, len(perm))
		for j, p := range perm {
			sites[j] = types.SiteID(p + 1)
		}
		r, w := MajorityQuorums(len(sites))
		configs = append(configs, Uniform(types.ItemID(fmt.Sprint("i", i)), r, w, sites...))
	}
	wide := MustAssignment(configs...)
	for i := 0; i < 200; i++ {
		items := make([]types.ItemID, rng.Intn(12))
		for j := range items {
			items[j] = types.ItemID(fmt.Sprint("i", rng.Intn(45))) // 40..44 are unknown
		}
		cases = append(cases, items)
	}
	for i, items := range cases {
		asgn := a
		if i >= 8 {
			asgn = wide
		}
		got, want := asgn.Participants(items), refParticipants(asgn, items)
		if !reflect.DeepEqual(got, want) || got == nil {
			t.Fatalf("Participants(%v) = %#v, want %#v", items, got, want)
		}
	}
}

func TestParticipants(t *testing.T) {
	a := MustAssignment(Uniform("x", 2, 3, 1, 2, 3, 4), Uniform("y", 2, 3, 3, 5, 6, 7))
	got := a.Participants([]types.ItemID{"x", "y"})
	want := []types.SiteID{1, 2, 3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("Participants = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Participants = %v, want %v", got, want)
		}
	}
	if ps := a.Participants([]types.ItemID{"x"}); len(ps) != 4 {
		t.Errorf("x participants = %v", ps)
	}
}

func TestQuorumPredicates(t *testing.T) {
	// Example 1 layout: x at 1-4, y at 5-8, r=2, w=3.
	a := MustAssignment(Uniform("x", 2, 3, 1, 2, 3, 4), Uniform("y", 2, 3, 5, 6, 7, 8))
	items := []types.ItemID{"x", "y"}

	g1 := []types.SiteID{2, 3}    // Example 1's G1 survivors
	g2 := []types.SiteID{4, 5}    // G2
	g3 := []types.SiteID{6, 7, 8} // G3

	if !a.HasReadQuorum("x", g1) {
		t.Error("G1 should read x (2 votes ≥ r=2)")
	}
	if a.HasWriteQuorum("x", g1) {
		t.Error("G1 must not write x (2 < w=3)")
	}
	if !a.HasWriteQuorum("y", g3) {
		t.Error("G3 should write y (3 ≥ w=3)")
	}
	if a.HasReadQuorum("x", g3) {
		t.Error("G3 has no x copies")
	}
	if a.HasReadQuorum("z", g1) || a.HasWriteQuorum("z", g1) {
		t.Error("unknown item must have no quorums")
	}

	// TP1 conditions on the Example 1 partitions:
	if a.WriteQuorumForEvery(items, g1) {
		t.Error("G1 lacks write quorum for y")
	}
	if !a.ReadQuorumForSome(items, g1) {
		t.Error("G1 has read quorum for x → abort quorum possible")
	}
	if a.ReadQuorumForSome(items, g2) {
		t.Error("G2 must have no read quorum for any item (1 vote each)")
	}
	if !a.ReadQuorumForSome(items, g3) {
		t.Error("G3 has read quorum for y")
	}
	// Whole cluster satisfies everything.
	all := []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
	if !a.WriteQuorumForEvery(items, all) || !a.ReadQuorumForSome(items, all) {
		t.Error("full cluster should satisfy all quorum predicates")
	}
	// Empty item list: "for every" over nothing is defined false here
	// (transactions write at least one item).
	if a.WriteQuorumForEvery(nil, all) {
		t.Error("empty item list must not satisfy for-every predicates")
	}
}

func TestMajorityQuorums(t *testing.T) {
	for n := 1; n <= 9; n++ {
		r, w := MajorityQuorums(n)
		if r+w <= n {
			t.Errorf("n=%d: r+w=%d not > v", n, r+w)
		}
		if 2*w <= n {
			t.Errorf("n=%d: w=%d not > v/2", n, w)
		}
		ic := Uniform("x", r, w, sitesUpTo(n)...)
		if err := ic.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func sitesUpTo(n int) []types.SiteID {
	out := make([]types.SiteID, n)
	for i := range out {
		out[i] = types.SiteID(i + 1)
	}
	return out
}

// TestQuorumIntersectionProperty verifies the heart of the Gifford
// constraints for arbitrary valid configurations: any site set holding a
// write quorum intersects (in votes) any set holding a read quorum, and two
// disjoint site sets can never both hold write quorums.
func TestQuorumIntersectionProperty(t *testing.T) {
	f := func(nSites uint8, voteSeeds []uint8, split []bool) bool {
		n := int(nSites%6) + 2 // 2..7 sites
		copies := make([]Copy, n)
		total := 0
		for i := 0; i < n; i++ {
			v := 1
			if i < len(voteSeeds) {
				v = int(voteSeeds[i]%3) + 1
			}
			copies[i] = Copy{Site: types.SiteID(i + 1), Votes: v}
			total += v
		}
		w := total/2 + 1
		r := total + 1 - w
		ic := ItemConfig{Item: "x", Copies: copies, R: r, W: w}
		if ic.Validate() != nil {
			return true // skip rare degenerate (shouldn't happen)
		}
		a := MustAssignment(ic)

		// Partition the sites into two disjoint groups by split bits.
		var g1, g2 []types.SiteID
		for i := 0; i < n; i++ {
			inG1 := i < len(split) && split[i]
			if inG1 {
				g1 = append(g1, types.SiteID(i+1))
			} else {
				g2 = append(g2, types.SiteID(i+1))
			}
		}
		// Two disjoint write quorums are impossible.
		if a.HasWriteQuorum("x", g1) && a.HasWriteQuorum("x", g2) {
			return false
		}
		// A write quorum and a read quorum cannot live in disjoint groups.
		if a.HasWriteQuorum("x", g1) && a.HasReadQuorum("x", g2) {
			return false
		}
		if a.HasWriteQuorum("x", g2) && a.HasReadQuorum("x", g1) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestVotesForAdditivityProperty: VotesFor is additive over disjoint site
// sets and bounded by TotalVotes.
func TestVotesForAdditivityProperty(t *testing.T) {
	a := MustAssignment(Uniform("x", 3, 4, 1, 2, 3, 4, 5, 6))
	f := func(mask uint8) bool {
		var in, out []types.SiteID
		for i := 0; i < 6; i++ {
			if mask&(1<<i) != 0 {
				in = append(in, types.SiteID(i+1))
			} else {
				out = append(out, types.SiteID(i+1))
			}
		}
		return a.VotesFor("x", in)+a.VotesFor("x", out) == a.TotalVotes("x")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256}); err != nil {
		t.Error(err)
	}
}

// TestHasQuorumAgainstVoteSum: the site-list quorum checks agree with the
// vote sum against r(x)/w(x) for every subset of holders.
func TestHasQuorumAgainstVoteSum(t *testing.T) {
	a := MustAssignment(Uniform("x", 3, 4, 1, 2, 3, 4, 5, 6))
	for mask := 0; mask < 1<<6; mask++ {
		var sites []types.SiteID
		for i := 0; i < 6; i++ {
			if mask&(1<<i) != 0 {
				sites = append(sites, types.SiteID(i+1))
			}
		}
		votes := a.VotesFor("x", sites)
		if got, want := a.HasReadQuorum("x", sites), votes >= 3; got != want {
			t.Fatalf("HasReadQuorum(%v) = %v with %d votes", sites, got, votes)
		}
		if got, want := a.HasWriteQuorum("x", sites), votes >= 4; got != want {
			t.Fatalf("HasWriteQuorum(%v) = %v with %d votes", sites, got, votes)
		}
	}
	if all := []types.SiteID{1, 2, 3, 4, 5, 6}; a.HasReadQuorum("missing", all) || a.HasWriteQuorum("missing", all) {
		t.Error("quorum met for unknown item")
	}
}

// TestForEachItemOrder: ForEachItem visits every item in declaration order,
// matching Items().
func TestForEachItemOrder(t *testing.T) {
	a := MustAssignment(
		Uniform("b", 1, 2, 1, 2),
		Uniform("a", 1, 2, 2, 3),
		Uniform("c", 1, 2, 3, 4),
	)
	var seen []types.ItemID
	a.ForEachItem(func(ic ItemConfig) { seen = append(seen, ic.Item) })
	want := a.Items()
	if len(seen) != len(want) {
		t.Fatalf("visited %d items, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("order diverged at %d: %v vs %v", i, seen, want)
		}
	}
}
