package quorumcalc

import (
	"testing"

	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// benchSites is the one 5-site assignment the microbenchmarks share: items x
// and y, a copy of each at every site, majority quorums (the bench's
// quorumcalc.decide_ns probe uses the same shape).
var benchSites = []types.SiteID{1, 2, 3, 4, 5}

func benchAssignment() *voting.Assignment {
	rq, wq := voting.MajorityQuorums(len(benchSites))
	return voting.MustAssignment(voting.Uniform("x", rq, wq, benchSites...), voting.Uniform("y", rq, wq, benchSites...))
}

// benchRules returns the five rules compiled over a transaction writing
// both items.
func benchRules() []*Quorums {
	f := NewFrame(benchAssignment(), types.Writeset{{Item: "x"}, {Item: "y"}}, benchSites)
	vc, va := voting.MajorityQuorums(len(benchSites))
	var out []*Quorums
	for _, r := range []Rule{TP1Rule(), TP2Rule(), SkeenRule(nil, vc, va), ThreePCRule(), TwoPCRule()} {
		q := r.Over(f)
		out = append(out, &q)
	}
	return out
}

// benchTally is a warm phase-1 tally of the first n sites, alternately in W
// and PC: past every immediate branch, so Decide tests both quorums.
func benchTally(n int) *Tally {
	var t Tally
	for i, s := range benchSites[:n] {
		st := types.StateWait
		if i%2 == 1 {
			st = types.StatePC
		}
		t.Add(s, st)
	}
	return &t
}

// BenchmarkDecide is one phase-1 classification per rule.
func BenchmarkDecide(b *testing.B) {
	t := benchTally(len(benchSites))
	for _, r := range benchRules() {
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var v Verdict
			for i := 0; i < b.N; i++ {
				v = r.Decide(t)
			}
			_ = v
		})
	}
}

// BenchmarkSettled is the poll's early-stop test per rule, with one of the
// five participants still silent.
func BenchmarkSettled(b *testing.B) {
	t := benchTally(len(benchSites) - 1)
	for _, r := range benchRules() {
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var ok bool
			for i := 0; i < b.N; i++ {
				ok = r.Settled(t, len(benchSites))
			}
			_ = ok
		})
	}
}

// BenchmarkAck is the commit coordinator's test of its PC-ACKs per rule, over
// acks from three of the five sites.
func BenchmarkAck(b *testing.B) {
	for _, r := range benchRules() {
		var acks Set
		for _, s := range benchSites[:3] {
			acks.Add(r.Index(s))
		}
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var ok bool
			for i := 0; i < b.N; i++ {
				ok = r.Ack(acks)
			}
			_ = ok
		})
	}
}
