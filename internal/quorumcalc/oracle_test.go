package quorumcalc_test

import (
	"math/rand"
	"testing"

	"qcommit/internal/avail"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// The oracle is the rule as it stood before compilation: each quorum a
// closure over the written items, re-run over a list of sites and the
// string-keyed assignment on every call. The differential tests below hold
// the compiled Quorums to it.

type oracleQuorum func(a *voting.Assignment, sites []types.SiteID) bool

// writeEvery holds when the sites carry w(x) votes for every written item
// (none written: never), readSome when they carry r(x) for at least one.
func writeEvery(items []types.ItemID) oracleQuorum {
	return func(a *voting.Assignment, sites []types.SiteID) bool {
		for _, x := range items {
			if ic, ok := a.Item(x); !ok || a.VotesFor(x, sites) < ic.W {
				return false
			}
		}
		return len(items) > 0
	}
}

func readSome(items []types.ItemID) oracleQuorum {
	return func(a *voting.Assignment, sites []types.SiteID) bool {
		for _, x := range items {
			if ic, ok := a.Item(x); ok && a.VotesFor(x, sites) >= ic.R {
				return true
			}
		}
		return false
	}
}

func siteVotes(votes map[types.SiteID]int, need int) oracleQuorum {
	return func(_ *voting.Assignment, sites []types.SiteID) bool {
		total := len(sites)
		if votes != nil {
			total = 0
			for _, s := range sites {
				total += votes[s]
			}
		}
		return total >= need
	}
}

func always(*voting.Assignment, []types.SiteID) bool { return true }
func never(*voting.Assignment, []types.SiteID) bool  { return false }

type oracleRule struct {
	qc, qa, ack oracleQuorum
	siteFailure bool
}

// oracleTally is a tally as per-state site lists in participant order.
type oracleTally [6][]types.SiteID

func (t *oracleTally) n(st types.State) int { return len(t[st]) }

func (t *oracleTally) union(a, b types.State) []types.SiteID {
	return append(append([]types.SiteID(nil), t[a]...), t[b]...)
}

func (r oracleRule) commits(a *voting.Assignment, t *oracleTally) bool {
	return t.n(types.StateCommitted) > 0 || !r.siteFailure && r.qc(a, t[types.StatePC])
}

func (r oracleRule) decide(a *voting.Assignment, t *oracleTally) quorumcalc.Verdict {
	aborted, anyPC := t.n(types.StateAborted) > 0, t.n(types.StatePC) > 0
	switch {
	case r.commits(a, t):
		return quorumcalc.VerdictCommit
	case r.siteFailure:
		if !aborted && anyPC {
			return quorumcalc.VerdictTryCommit
		}
		return quorumcalc.VerdictAbort
	case aborted || t.n(types.StateInitial) > 0 || r.qa(a, t[types.StatePA]):
		return quorumcalc.VerdictAbort
	case anyPC && r.qc(a, t.union(types.StateWait, types.StatePC)):
		return quorumcalc.VerdictTryCommit
	case r.qa(a, t.union(types.StateWait, types.StatePA)):
		return quorumcalc.VerdictTryAbort
	default:
		return quorumcalc.VerdictBlock
	}
}

func (r oracleRule) settled(a *voting.Assignment, t *oracleTally, polled int) bool {
	n := 0
	for _, s := range t {
		n += len(s)
	}
	return n >= polled || r.commits(a, t)
}

func (r oracleRule) confirmed(try quorumcalc.Verdict, a *voting.Assignment, confirmed []types.SiteID, waiting bool) bool {
	if r.siteFailure {
		return !waiting
	}
	if try == quorumcalc.VerdictTryAbort {
		return r.qa(a, confirmed)
	}
	return r.qc(a, confirmed)
}

func (r oracleRule) outcome(a *voting.Assignment, t *oracleTally) types.Outcome {
	if t.n(types.StateWait)+t.n(types.StatePC)+t.n(types.StatePA) == 0 {
		switch {
		case t.n(types.StateCommitted) > 0:
			return types.OutcomeCommitted
		case t.n(types.StateAborted) > 0:
			return types.OutcomeAborted
		default:
			return types.OutcomeUnknown
		}
	}
	switch r.decide(a, t) {
	case quorumcalc.VerdictCommit, quorumcalc.VerdictTryCommit:
		return types.OutcomeCommitted
	case quorumcalc.VerdictAbort, quorumcalc.VerdictTryAbort:
		return types.OutcomeAborted
	default:
		return types.OutcomeBlocked
	}
}

// txnCase is one transaction: an assignment, its writeset and participants,
// and the Skeen site votes (nil: one per participant) and quorums.
type txnCase struct {
	a            *voting.Assignment
	ws           types.Writeset
	participants []types.SiteID
	votes        map[types.SiteID]int
	vc, va       int
}

// pair is one protocol's rule twice: compiled, and as the oracle.
type pair struct {
	name     string
	compiled quorumcalc.Quorums
	oracle   oracleRule
}

// pairs compiles the five protocols of c over one frame, beside the oracle.
func pairs(c txnCase) []pair {
	f := quorumcalc.NewFrame(c.a, c.ws, c.participants)
	items := c.ws.Items()
	wEvery, rSome := writeEvery(items), readSome(items)
	return []pair{
		{"TP1", quorumcalc.TP1Rule().Over(f), oracleRule{qc: wEvery, qa: rSome, ack: wEvery}},
		{"TP2", quorumcalc.TP2Rule().Over(f), oracleRule{qc: rSome, qa: wEvery, ack: rSome}},
		{"SkeenQ", quorumcalc.SkeenRule(c.votes, c.vc, c.va).Over(f),
			oracleRule{qc: siteVotes(c.votes, c.vc), qa: siteVotes(c.votes, c.va), ack: siteVotes(c.votes, c.vc)}},
		{"3PC", quorumcalc.ThreePCRule().Over(f),
			oracleRule{qc: always, qa: always, ack: siteVotes(nil, len(c.participants)), siteFailure: true}},
		{"2PC", quorumcalc.TwoPCRule().Over(f), oracleRule{qc: never, qa: never, ack: never}},
	}
}

// silent marks a participant that has not answered.
const silent = 6

// compare checks every entry point of every protocol on one state vector
// (one digit per participant: a state, or silent).
func compare(t *testing.T, c txnCase, ps []pair, vec []int, tl *quorumcalc.Tally) {
	t.Helper()
	var ot oracleTally
	var answered []types.SiteID
	tl.Reset()
	tl.Bind(ps[0].compiled.Frame())
	for i, d := range vec {
		if d == silent {
			continue
		}
		s := c.participants[i]
		ot[d] = append(ot[d], s)
		tl.Add(s, types.State(d))
		answered = append(answered, s)
	}
	var set quorumcalc.Set
	for _, s := range answered {
		set.Add(ps[0].compiled.Index(s))
	}
	n := len(c.participants)
	for k := range ps {
		p := &ps[k]
		q := &p.compiled
		if got, want := q.Decide(tl), p.oracle.decide(c.a, &ot); got != want {
			t.Fatalf("%s %v: Decide = %v, oracle %v", p.name, vec, got, want)
		}
		if got, want := q.Outcome(tl), p.oracle.outcome(c.a, &ot); got != want {
			t.Fatalf("%s %v: Outcome = %v, oracle %v", p.name, vec, got, want)
		}
		for _, polled := range []int{n, n - 1} {
			if got, want := q.Settled(tl, polled), p.oracle.settled(c.a, &ot, polled); got != want {
				t.Fatalf("%s %v: Settled(%d) = %v, oracle %v", p.name, vec, polled, got, want)
			}
		}
		if got, want := q.Ack(set), p.oracle.ack(c.a, answered); got != want {
			t.Fatalf("%s %v: Ack(%v) = %v, oracle %v", p.name, vec, answered, got, want)
		}
		for _, try := range []quorumcalc.Verdict{quorumcalc.VerdictTryCommit, quorumcalc.VerdictTryAbort} {
			for _, waiting := range []bool{false, true} {
				if got, want := q.Confirmed(try, set, waiting), p.oracle.confirmed(try, c.a, answered, waiting); got != want {
					t.Fatalf("%s %v: Confirmed(%v, %v, %v) = %v, oracle %v", p.name, vec, try, answered, waiting, got, want)
				}
			}
		}
	}
}

// weighted re-weights every copy of c's assignment (1 to 3 votes, by site)
// and re-sizes its quorums to the new totals, and gives Skeen's protocol the
// same kind of site votes.
func weighted(c txnCase) txnCase {
	var configs []voting.ItemConfig
	c.a.ForEachItem(func(ic voting.ItemConfig) {
		copies := make([]voting.Copy, len(ic.Copies))
		v := 0
		for i, cp := range ic.Copies {
			copies[i] = voting.Copy{Site: cp.Site, Votes: 1 + int(cp.Site)%3}
			v += copies[i].Votes
		}
		w := v/2 + 1
		configs = append(configs, voting.ItemConfig{Item: ic.Item, Copies: copies, R: v - w + 1, W: w})
	})
	c.a = voting.MustAssignment(configs...)
	c.votes = map[types.SiteID]int{}
	total := 0
	for _, s := range c.participants {
		c.votes[s] = 1 + int(s)%3
		total += c.votes[s]
	}
	c.vc = total/2 + 1
	c.va = total - c.vc + 1
	return c
}

// TestCompiledRuleMatchesClosure holds the compiled rules to the closure
// oracle exhaustively: over transactions the availability study draws (up to
// six participants, one vote per copy, and the same placements re-weighted
// with weighted Skeen site votes), every vector of participant states with
// silence included, and the five protocols — Decide, Outcome, Settled, and
// Ack and Confirmed over the answering set, which ranges over every subset.
func TestCompiledRuleMatchesClosure(t *testing.T) {
	params := []avail.ScenarioParams{
		{NumSites: 6, NumItems: 4, CopiesPerItem: 4, ItemsPerTxn: 2, MaxGroups: 2},
		{NumSites: 6, NumItems: 3, CopiesPerItem: 3, ItemsPerTxn: 3, MaxGroups: 2},
		{NumSites: 5, NumItems: 2, CopiesPerItem: 4, ItemsPerTxn: 1, MaxGroups: 2},
	}
	var tl quorumcalc.Tally
	cases, vectors, six := 0, 0, 0
	for _, p := range params {
		gen, err := avail.NewScenarioGen(p)
		if err != nil {
			t.Fatal(err)
		}
		// The first two draws whose participants are as many as the
		// placement allows.
		most := min(p.NumSites, p.CopiesPerItem*p.ItemsPerTxn)
		for seed, taken := int64(1), 0; taken < 2 && seed < 100; seed++ {
			sc, err := gen.Generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			n := len(sc.Participants)
			if n != most {
				continue
			}
			if taken++; n == 6 {
				six++
			}
			r, w := voting.MajorityQuorums(n)
			unit := txnCase{a: sc.Assignment, ws: sc.Writeset.Clone(), participants: append([]types.SiteID(nil), sc.Participants...), vc: w, va: r}
			for _, c := range []txnCase{unit, weighted(unit)} {
				cases++
				ps := pairs(c)
				vec := make([]int, n)
				for {
					compare(t, c, ps, vec, &tl)
					vectors++
					i := 0
					for i < n && vec[i] == silent {
						vec[i] = 0
						i++
					}
					if i == n {
						break
					}
					vec[i]++
				}
			}
		}
	}
	t.Logf("%d transactions (%d placements of six participants), %d state vectors", cases, six, vectors)
	if cases != 12 || six < 4 {
		t.Fatalf("only %d transactions checked, %d placements of six participants", cases, six)
	}
}

// FuzzCompiledRuleMatchesClosure compares the compiled rules with the
// oracle on random transactions of any size — past one 64-bit word of
// participants included — with weighted copies, copies outside the
// participants, a repeated and an unconfigured written item, weighted Skeen
// votes, and a random state vector.
func FuzzCompiledRuleMatchesClosure(f *testing.F) {
	f.Add(int64(1), uint8(5))
	f.Add(int64(2), uint8(64))
	f.Add(int64(3), uint8(65))
	f.Add(int64(4), uint8(130))
	f.Add(int64(5), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)
		// Participants are sites 1..n in a shuffled order; sites above n
		// hold copies but take no part.
		participants := make([]types.SiteID, n)
		for i, p := range rng.Perm(n) {
			participants[i] = types.SiteID(p + 1)
		}
		var configs []voting.ItemConfig
		var ws types.Writeset
		for k := 0; k < 1+rng.Intn(4); k++ {
			x := types.ItemID(rune('a' + k))
			var copies []voting.Copy
			v := 0
			for _, s := range rng.Perm(n + 3)[:1+rng.Intn(min(n+3, 8))] {
				copies = append(copies, voting.Copy{Site: types.SiteID(s + 1), Votes: 1 + rng.Intn(3)})
				v += copies[len(copies)-1].Votes
			}
			w := v/2 + 1 + rng.Intn(v-v/2)
			configs = append(configs, voting.ItemConfig{Item: x, Copies: copies, W: w, R: v - w + 1 + rng.Intn(w)})
			ws = append(ws, types.Update{Item: x})
		}
		ws = append(ws, ws[0], types.Update{Item: "unconfigured"})
		if rng.Intn(2) == 0 {
			ws = ws[:len(ws)-1]
		}
		c := txnCase{a: voting.MustAssignment(configs...), ws: ws, participants: participants}
		total := n
		if rng.Intn(2) == 0 {
			c.votes, total = map[types.SiteID]int{}, 0
			for _, s := range participants {
				c.votes[s] = rng.Intn(4)
				total += c.votes[s]
			}
		}
		c.vc = 1 + rng.Intn(total+1)
		c.va = total - c.vc + 1 + rng.Intn(2)
		vec := make([]int, n)
		for i := range vec {
			vec[i] = rng.Intn(silent + 1)
		}
		var tl quorumcalc.Tally
		compare(t, c, pairs(c), vec, &tl)
	})
}
