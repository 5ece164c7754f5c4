package quorumcalc

import (
	"testing"

	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// exampleAssignment mirrors the paper's Example 1 shape: one item x with
// four single-vote copies, r(x)=2, w(x)=3.
func exampleAssignment(t *testing.T) *voting.Assignment {
	t.Helper()
	a, err := voting.NewAssignment(voting.Uniform("x", 2, 3, 1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func tallyOf(states map[types.SiteID]types.State) *Tally {
	t := &Tally{}
	for s, st := range states {
		t.Add(s, st)
	}
	return t
}

// compile compiles r for the transaction writing items at participants; a
// may be nil when items is empty.
func compile(r Rule, a *voting.Assignment, items []types.ItemID, participants ...types.SiteID) *Quorums {
	ws := make(types.Writeset, len(items))
	for i, x := range items {
		ws[i].Item = x
	}
	q := r.Over(NewFrame(a, ws, participants))
	return &q
}

// setOf is the participant set of the given sites under q's frame.
func setOf(q *Quorums, sites ...types.SiteID) Set {
	var s Set
	for _, x := range sites {
		s.Add(q.Index(x))
	}
	return s
}

// sitesOf lists the members of s under f, ascending by index.
func sitesOf(f *Frame, s Set) []types.SiteID {
	var out []types.SiteID
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = append(out, f.Site(i))
	}
	return out
}

func TestTallyReuse(t *testing.T) {
	ta := tallyOf(map[types.SiteID]types.State{1: types.StateWait, 2: types.StatePC})
	if ta.Count(types.StateWait) != 1 || ta.Count(types.StatePC) != 1 {
		t.Fatalf("unexpected tally: %+v", ta)
	}
	ta.Reset()
	if ta.Count(types.StateWait) != 0 || ta.Count(types.StatePC) != 0 {
		t.Fatal("Reset did not clear the tally")
	}
	ta.Add(3, types.StateInitial)
	if ta.Count(types.StateInitial) != 1 {
		t.Fatal("Add after Reset lost the site")
	}
}

func TestTallyHelpers(t *testing.T) {
	var tl Tally
	tl.Add(2, types.StateWait)
	tl.Add(3, types.StatePC)
	tl.Add(4, types.StateWait)
	if tl.Count(types.StatePC) == 0 || tl.Count(types.StateAborted) != 0 {
		t.Error("Count wrong")
	}
	if got := tl.union(types.StateWait, types.StatePA).Len(); got != 2 {
		t.Errorf("|W∪PA| = %d", got)
	}
	if got := tl.union(types.StateWait, types.StatePC).Len(); got != 3 {
		t.Errorf("|W∪PC| = %d", got)
	}
	if !tl.uncertain() {
		t.Error("no uncertain participant")
	}
	// Binding renumbers by the frame and drops the non-participant 3; a
	// site added again keeps its latest state.
	f := NewFrame(nil, nil, []types.SiteID{4, 1, 2})
	tl.Bind(f)
	tl.Add(1, types.StatePA)
	tl.Add(1, types.StateWait)
	if got := sitesOf(f, tl.In(types.StateWait)); len(got) != 3 || got[0] != 4 || got[1] != 1 || got[2] != 2 {
		t.Errorf("In(W) = %v, want [4 1 2] in frame order", got)
	}
	if tl.Len() != 3 || tl.Count(types.StatePC) != 0 || !tl.Answered(0) {
		t.Errorf("bound tally: Len %d, |PC| %d", tl.Len(), tl.Count(types.StatePC))
	}
}

// TestSetAcrossWords drives Set over the 64-participant word boundary: the
// same type serves every transaction size.
func TestSetAcrossWords(t *testing.T) {
	var s Set
	members := []int{0, 63, 64, 127, 130}
	for _, i := range members {
		s.Add(i)
	}
	var got []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(members) || s.Len() != len(members) {
		t.Fatalf("members %v, Len %d; want %v", got, s.Len(), members)
	}
	for k, i := range members {
		if got[k] != i || !s.Has(i) {
			t.Errorf("member %d: got %d", i, got[k])
		}
	}
	s.Remove(64)
	if s.Has(64) || s.Next(64) != 127 || s.Has(1000) || s.Len() != 4 {
		t.Error("Remove, Next or Has wrong past the first word")
	}
	s.Clear()
	if s.Len() != 0 || s.Next(0) != -1 {
		t.Error("Clear left members")
	}
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictCommit: "commit", VerdictAbort: "abort",
		VerdictTryCommit: "try-commit", VerdictTryAbort: "try-abort", VerdictBlock: "block",
	} {
		if v.String() != want {
			t.Errorf("verdict %d = %q, want %q", v, v.String(), want)
		}
	}
}

// frameSink keeps a compiled frame on the heap, as every real caller does.
var frameSink *Frame

// TestDecideAllocatesNothing pins the hot-path contract the automata, the
// hybrid churn engine and the availability Monte Carlo rely on: once the
// tally is warm, classifying it — unions included — and testing acks and
// confirmations allocates nothing. It also pins what one compile costs:
// three allocations for the frame (the frame, its item rows and its copy
// weights), none for a rule over it but Skeen's weighted site row.
func TestDecideAllocatesNothing(t *testing.T) {
	a := exampleAssignment(t)
	parts := []types.SiteID{1, 2, 3, 4}
	ws := types.Writeset{{Item: "x"}}
	ta := tallyOf(map[types.SiteID]types.State{1: types.StateWait, 2: types.StatePC, 3: types.StateWait})
	f := NewFrame(a, ws, parts)
	weighted := map[types.SiteID]int{1: 2, 2: 1, 3: 1, 4: 1}
	for _, r := range []Rule{TP1Rule(), TP2Rule(), SkeenRule(nil, 4, 4), SkeenRule(weighted, 3, 3), ThreePCRule(), TwoPCRule()} {
		q := r.Over(f)
		acks := setOf(&q, 1, 2, 3)
		q.Outcome(ta)
		for name, call := range map[string]func(){
			"Outcome":   func() { q.Outcome(ta) },
			"Decide":    func() { q.Decide(ta) },
			"Settled":   func() { q.Settled(ta, len(parts)) },
			"Ack":       func() { q.Ack(acks) },
			"Confirmed": func() { q.Confirmed(VerdictTryAbort, acks, true) },
		} {
			if n := testing.AllocsPerRun(100, call); n != 0 {
				t.Errorf("%s: %s allocates %v times per call", r.Name(), name, n)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { frameSink = NewFrame(a, ws, parts) }); n != 3 {
		t.Errorf("NewFrame allocates %v times, want 3", n)
	}
	if n := testing.AllocsPerRun(100, func() { TP1Rule().Over(f) }); n != 0 {
		t.Errorf("TP1Rule().Over allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { SkeenRule(weighted, 3, 3).Over(f) }); n != 1 {
		t.Errorf("weighted SkeenRule.Over allocates %v times, want 1", n)
	}
	var reused Frame
	reused.Init(a, ws, parts)
	if n := testing.AllocsPerRun(100, func() { reused.Init(a, ws, parts) }); n != 0 {
		t.Errorf("Frame.Init over its own storage allocates %v times", n)
	}
}

// TestTwoPC pins 2PC's rule as the ladder with no quorum: over every tally
// of up to five participants in q, W, PC, C and A, TwoPCRule's fold equals
// the cooperative termination table 2PC ran as a protocol of its own —
//
//   - no participant in W: nobody starts a termination round, so the group
//     reports what its terminal sites decided, blocked if some hold locks;
//   - else a C reporter commits, an A or q reporter aborts, and a group
//     whose reporters are all uncertain blocks.
//
// Tallies holding both q and PC but no W are left out: there the fold aborts
// (a participant in PC arms patience and the poll finds the q), where the old
// table stayed passive because its participants watched for silence in W
// only. No 2PC run enters PC, and the availability study's vote-phase and
// prepare-phase cuts never put a q and a PC participant in one group.
func TestTwoPC(t *testing.T) {
	r := compile(TwoPCRule(), nil, nil, 1, 2, 3, 4, 5)
	q, w, pc, c, a := types.StateInitial, types.StateWait, types.StatePC, types.StateCommitted, types.StateAborted
	cooperative := func(tl *Tally) types.Outcome {
		n := func(st types.State) bool { return tl.Count(st) > 0 }
		switch {
		case n(c):
			return types.OutcomeCommitted
		case n(a):
			return types.OutcomeAborted
		case !n(w) && n(pc):
			return types.OutcomeBlocked
		case !n(w):
			return types.OutcomeUnknown
		case n(q):
			return types.OutcomeAborted
		default:
			return types.OutcomeBlocked
		}
	}
	checked := 0
	forEveryTally([]types.State{q, w, pc, c, a}, 5, func(tl *Tally) {
		if tl.Count(q) > 0 && tl.Count(pc) > 0 && tl.Count(w) == 0 {
			return
		}
		checked++
		if got, want := r.Outcome(tl), cooperative(tl); got != want {
			t.Errorf("%v: Outcome = %v, want %v", tl.in, got, want)
		}
	})
	if checked < 3000 {
		t.Fatalf("only %d tallies checked", checked)
	}
	// Its quorums never hold, so no tally — PA included — draws a try
	// verdict: 2PC has no PREPARE round for a terminator to run.
	forEveryTally([]types.State{q, w, pc, types.StatePA, c, a}, 4, func(tl *Tally) {
		if v := r.Decide(tl); v == VerdictTryCommit || v == VerdictTryAbort {
			t.Errorf("%v: Decide = %v", tl.in, v)
		}
	})
	if r.Prepares() {
		t.Error("2PC's coordinator prepares")
	}
	for _, other := range []Rule{TP1Rule(), TP2Rule(), SkeenRule(nil, 3, 2), ThreePCRule()} {
		if !other.Prepares() {
			t.Errorf("%s's coordinator skips the PREPARE round", other.Name())
		}
	}
}

// forEveryTally calls f with the tally of every assignment of the given
// states to sites 1..n, for every n up to maxSites (the empty group
// included).
func forEveryTally(states []types.State, maxSites int, f func(*Tally)) {
	var tl Tally
	assign := make([]types.State, 0, maxSites)
	var walk func()
	walk = func() {
		tl.Reset()
		for i, st := range assign {
			tl.Add(types.SiteID(i+1), st)
		}
		f(&tl)
		if len(assign) == maxSites {
			return
		}
		for _, st := range states {
			assign = append(assign, st)
			walk()
			assign = assign[:len(assign)-1]
		}
	}
	walk()
}

func TestThreePC(t *testing.T) {
	d := compile(ThreePCRule(), nil, nil, 1, 2, 3).Outcome
	cases := []struct {
		name   string
		states map[types.SiteID]types.State
		want   types.Outcome
	}{
		// "If there exists a site in PC state or commit state, commit; else
		// abort" — terminates every partition, never blocks.
		{"PC commits", map[types.SiteID]types.State{2: types.StateWait, 3: types.StatePC}, types.OutcomeCommitted},
		{"W-only aborts", map[types.SiteID]types.State{2: types.StateWait, 3: types.StateWait}, types.OutcomeAborted},
		{"q aborts", map[types.SiteID]types.State{2: types.StateWait, 3: types.StateInitial}, types.OutcomeAborted},
		{"terminal commit wins", map[types.SiteID]types.State{2: types.StateCommitted, 3: types.StateWait}, types.OutcomeCommitted},
		{"no initiator", map[types.SiteID]types.State{2: types.StateInitial}, types.OutcomeUnknown},
	}
	for _, tc := range cases {
		if got := d(tallyOf(tc.states)); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSkeenOneVotePerSite(t *testing.T) {
	// Four single-vote participants: Vc = 3, Va = 2.
	d := compile(SkeenRule(nil, 3, 2), nil, nil, 1, 2, 3, 4).Outcome
	cases := []struct {
		name   string
		states map[types.SiteID]types.State
		want   types.Outcome
	}{
		{"PC quorum commits", map[types.SiteID]types.State{1: types.StatePC, 2: types.StatePC, 3: types.StatePC}, types.OutcomeCommitted},
		{"try-commit via W", map[types.SiteID]types.State{1: types.StatePC, 2: types.StateWait, 3: types.StateWait}, types.OutcomeCommitted},
		{"try-abort via W", map[types.SiteID]types.State{1: types.StateWait, 2: types.StateWait}, types.OutcomeAborted},
		{"q aborts immediately", map[types.SiteID]types.State{1: types.StateWait, 2: types.StateInitial}, types.OutcomeAborted},
		// The Example 1 failure: a small partition with a PC site has
		// neither quorum — Skeen's protocol blocks it.
		{"PC minority blocks", map[types.SiteID]types.State{1: types.StatePC}, types.OutcomeBlocked},
		{"lone W blocks", map[types.SiteID]types.State{1: types.StateWait}, types.OutcomeBlocked},
	}
	for _, tc := range cases {
		if got := d(tallyOf(tc.states)); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSkeenWeighted(t *testing.T) {
	// Site 1 carries 3 votes, sites 2-3 one each: Vc = 3, Va = 3.
	d := compile(SkeenRule(map[types.SiteID]int{1: 3, 2: 1, 3: 1}, 3, 3), nil, nil, 1, 2, 3).Outcome
	if got := d(tallyOf(map[types.SiteID]types.State{1: types.StatePC})); got != types.OutcomeCommitted {
		t.Errorf("heavy PC site: got %v, want committed", got)
	}
	if got := d(tallyOf(map[types.SiteID]types.State{2: types.StateWait, 3: types.StateWait})); got != types.OutcomeBlocked {
		t.Errorf("light W sites: got %v, want blocked", got)
	}
}

func TestTP1(t *testing.T) {
	a := exampleAssignment(t)
	d := TP1([]types.ItemID{"x"})
	cases := []struct {
		name   string
		states map[types.SiteID]types.State
		want   types.Outcome
	}{
		// Sites 2,3,4 hold 3 = w(x) votes: with a PC site present the
		// try-commit branch reaches the write quorum — the availability gain
		// over Skeen's site-vote quorums (Example 4).
		{"w(x) votes with PC commit", map[types.SiteID]types.State{2: types.StatePC, 3: types.StateWait, 4: types.StateWait}, types.OutcomeCommitted},
		{"w(x) votes all W abort", map[types.SiteID]types.State{2: types.StateWait, 3: types.StateWait, 4: types.StateWait}, types.OutcomeAborted},
		{"r(x) votes abort", map[types.SiteID]types.State{2: types.StateWait, 3: types.StateWait}, types.OutcomeAborted},
		{"q aborts immediately", map[types.SiteID]types.State{2: types.StatePC, 3: types.StateInitial}, types.OutcomeAborted},
		// One vote reaches neither w(x)=3 (commit) nor r(x)=2 (abort).
		{"single vote blocks", map[types.SiteID]types.State{2: types.StatePC}, types.OutcomeBlocked},
		{"no initiator", map[types.SiteID]types.State{2: types.StateInitial}, types.OutcomeUnknown},
	}
	for _, tc := range cases {
		if got := d(a, tallyOf(tc.states)); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTP2(t *testing.T) {
	a := exampleAssignment(t)
	d := compile(TP2Rule(), a, []types.ItemID{"x"}, 1, 2, 3, 4).Outcome
	cases := []struct {
		name   string
		states map[types.SiteID]types.State
		want   types.Outcome
	}{
		// TP2 swaps the roles: commit needs only r(x)=2 votes (with a PC
		// site), abort needs w(x)=3.
		{"r(x) votes with PC commit", map[types.SiteID]types.State{2: types.StatePC, 3: types.StateWait}, types.OutcomeCommitted},
		{"w(x) votes all W abort", map[types.SiteID]types.State{2: types.StateWait, 3: types.StateWait, 4: types.StateWait}, types.OutcomeAborted},
		{"r(x) votes all W block", map[types.SiteID]types.State{2: types.StateWait, 3: types.StateWait}, types.OutcomeBlocked},
		{"single PC blocks", map[types.SiteID]types.State{2: types.StatePC}, types.OutcomeBlocked},
		{"q aborts immediately", map[types.SiteID]types.State{2: types.StatePC, 3: types.StateInitial}, types.OutcomeAborted},
	}
	for _, tc := range cases {
		if got := d(tallyOf(tc.states)); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTP1VsSkeenExample1 pins the paper's headline comparison: the same
// partition group (w(x) replica votes present, one site in PC) commits under
// TP1's replica-vote quorums but blocks under Skeen's site-vote quorums when
// the site majority lies elsewhere.
func TestTP1VsSkeenExample1(t *testing.T) {
	a := exampleAssignment(t)
	// Five participants overall → Vc = 3, Va = 3 site votes; the group holds
	// only sites 2,3,4 (3 of 5 sites, but suppose Vc were 4: use 6
	// participants → Vc = 4, Va = 3 to make Skeen block).
	skeen := compile(SkeenRule(nil, 4, 3), nil, nil, 1, 2, 3, 4, 5, 6).Outcome
	tp1 := TP1([]types.ItemID{"x"})
	group := map[types.SiteID]types.State{2: types.StatePC, 3: types.StateWait, 4: types.StateWait}
	if got := tp1(a, tallyOf(group)); got != types.OutcomeCommitted {
		t.Errorf("TP1: got %v, want committed", got)
	}
	if got := skeen(tallyOf(group)); got != types.OutcomeBlocked {
		t.Errorf("Skeen: got %v, want blocked", got)
	}
}

// TestSettledFixesTheVerdict is the contract the terminators close their
// poll on: over every partial tally of up to five participants (each silent
// or in one of the six states) and the four rule tables, with weighted copies
// and weighted site votes, a settled tally classifies the same whatever the
// silent sites would have reported, and a tally everyone answered is settled.
// It also pins what must not settle: an abort or initial-state reply while
// someone is silent, which a later C outranks.
func TestSettledFixesTheVerdict(t *testing.T) {
	const silent = numStates // the seventh digit: no reply yet
	asgn := voting.MustAssignment(
		voting.ItemConfig{Item: "x", R: 2, W: 4, Copies: []voting.Copy{
			{Site: 1, Votes: 2}, {Site: 2, Votes: 1}, {Site: 3, Votes: 1}, {Site: 5, Votes: 1}}},
		voting.Uniform("y", 2, 2, 3, 4, 5),
	)
	items := []types.ItemID{"x", "y"}
	all := []types.SiteID{1, 2, 3, 4, 5}
	for n := 1; n <= 5; n++ {
		var rules []*Quorums
		for _, r := range []Rule{
			ThreePCRule(),
			SkeenRule(map[types.SiteID]int{1: 3, 2: 1, 3: 1, 4: 2, 5: 2}, 5, 5),
			TP1Rule(),
			TP2Rule(),
		} {
			rules = append(rules, compile(r, asgn, items, all[:n]...))
		}
		vectors := 1
		for i := 0; i < n; i++ {
			vectors *= silent + 1
		}
		digits := make([]int, n)
		for _, r := range rules {
			early := 0
			for vec := 0; vec < vectors; vec++ {
				var partial Tally
				var quiet []types.SiteID
				for i, v := 0, vec; i < n; i, v = i+1, v/(silent+1) {
					digits[i] = v % (silent + 1)
					if digits[i] == silent {
						quiet = append(quiet, types.SiteID(i+1))
					} else {
						partial.Add(types.SiteID(i+1), types.State(digits[i]))
					}
				}
				settled := r.Settled(&partial, n)
				if len(quiet) == 0 {
					if !settled {
						t.Fatalf("%s %v: everyone answered, yet not settled", r.Name(), digits)
					}
					continue
				}
				verdict := r.Decide(&partial)
				if !settled {
					continue
				}
				early++
				completions := 1
				for range quiet {
					completions *= numStates
				}
				for c := 0; c < completions; c++ {
					var full Tally
					for i := 0; i < n; i++ {
						if digits[i] != silent {
							full.Add(types.SiteID(i+1), types.State(digits[i]))
						}
					}
					for i, v := 0, c; i < len(quiet); i, v = i+1, v/numStates {
						full.Add(quiet[i], types.State(v%numStates))
					}
					if got := r.Decide(&full); got != verdict {
						t.Fatalf("%s %v: settled on %v, but completion %d of the silent sites %v gives %v",
							r.Name(), digits, verdict, c, quiet, got)
					}
				}
			}
			if n > 1 && early == 0 {
				t.Errorf("%s over %d participants: no partial tally ever settled", r.Name(), n)
			}
		}
	}

	// The reverse direction, by example: these partial tallies look decided
	// but a silent site reporting C would overturn them.
	r := compile(TP1Rule(), asgn, items, 1, 2)
	for _, st := range []types.State{types.StateAborted, types.StateInitial} {
		partial := tallyOf(map[types.SiteID]types.State{1: st})
		if r.Decide(partial) != VerdictAbort {
			t.Fatalf("setup: lone %v does not classify as abort", st)
		}
		if r.Settled(partial, 2) {
			t.Errorf("a lone %v reply settled the poll with a participant still silent", st)
		}
	}
}

// TestConfirmed pins when a confirm round may distribute: the quorum family
// on the attempted quorum alone, whether or not anyone is still to ack; 3PC,
// whose quorum demands nothing, only once nobody is left to wait for.
func TestConfirmed(t *testing.T) {
	a := exampleAssignment(t)
	tp1 := compile(TP1Rule(), a, []types.ItemID{"x"}, 1, 2, 3, 4) // Qc = w(x) = 3 votes, Qa = r(x) = 2
	one, two, three := setOf(tp1, 2), setOf(tp1, 2, 3), setOf(tp1, 2, 3, 4)
	for _, waiting := range []bool{true, false} {
		if tp1.Confirmed(VerdictTryCommit, two, waiting) || !tp1.Confirmed(VerdictTryCommit, three, waiting) {
			t.Errorf("TP1 try-commit (waiting=%v): want confirmed by exactly w(x) votes", waiting)
		}
		if tp1.Confirmed(VerdictTryAbort, one, waiting) || !tp1.Confirmed(VerdictTryAbort, two, waiting) {
			t.Errorf("TP1 try-abort (waiting=%v): want confirmed by exactly r(x) votes", waiting)
		}
	}
	tpc := compile(ThreePCRule(), a, nil, 1, 2, 3, 4)
	if tpc.Confirmed(VerdictTryCommit, three, true) {
		t.Error("3PC confirmed while a prepared site had yet to acknowledge")
	}
	if !tpc.Confirmed(VerdictTryCommit, nil, false) {
		t.Error("3PC not confirmed with nobody left to wait for")
	}
}
