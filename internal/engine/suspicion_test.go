package engine

import (
	"fmt"
	"strings"
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/sim"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// TestWrongSuspicionKeepsAtomicity: a coordinator that is alive but cut off
// is suspected by every participant once their patience runs out, so their
// polls stop waiting for it and their campaigns skip it — while it runs its
// own termination round in its own group. Healing brings its frames back to
// sites that suspect it. For the three quorum protocols, 20 delay seeds,
// partitions at several instants just after PREPARE-TO-COMMIT and several
// heal delays, no run may violate atomicity or leave the stores
// inconsistent; some runs must see a suspicion cleared by the suspect's
// frame, or the sweep did not exercise what it is about.
func TestWrongSuspicionKeepsAtomicity(t *testing.T) {
	sites := []types.SiteID{1, 2, 3, 4, 5}
	specs := []core.Spec{
		{Variant: core.Protocol1},
		{Variant: core.Protocol2},
		core.Uniform(sites, 3, 3),
	}
	ws := types.Writeset{{Item: "x", Value: 1}}
	for _, spec := range specs {
		t.Run(spec.Name(), func(t *testing.T) {
			t.Parallel()
			cleared, terminated := 0, 0
			for seed := int64(1); seed <= 20; seed++ {
				cfg := Config{Seed: seed, Assignment: voting.MustAssignment(voting.Uniform("x", 3, 3, sites...)), Spec: spec}
				ptc, T := prepareToCommitAt(t, cfg, ws)
				for _, cut := range []sim.Time{0, T / 4, T / 2, T, 3 * T / 2} {
					for _, heal := range []sim.Time{2 * T, 4 * T, 8 * T} {
						name := fmt.Sprintf("seed %d, cut at PTC+%.2f T, heal %.0f T later", seed, float64(cut)/float64(T), float64(heal)/float64(T))
						cl := New(cfg)
						txn := cl.Begin(1, ws)
						cl.PartitionAt(ptc+cut, []types.SiteID{1}, sites[1:])
						cl.HealAt(ptc + cut + heal)
						cl.Run()
						if v := cl.Violations(); len(v) != 0 {
							t.Fatalf("%s: violations %v\n%s", name, v, cl.Recorder().Ladder(nil))
						}
						if issues := cl.CheckStores(); len(issues) != 0 {
							t.Fatalf("%s: store issues %v", name, issues)
						}
						for _, e := range cl.Recorder().Events() {
							if !e.IsMessage() && strings.Contains(e.Text, "hears from suspect") {
								cleared++
								break
							}
						}
						if o := cl.OutcomeAt(1, txn); o == types.OutcomeCommitted || o == types.OutcomeAborted {
							terminated++
						}
					}
				}
			}
			t.Logf("%d of 300 runs cleared a suspicion; the coordinator terminated in %d", cleared, terminated)
			if cleared == 0 {
				t.Error("no run cleared a suspicion when the suspect's frame arrived")
			}
		})
	}
}

// prepareToCommitAt runs ws from coordinator site 1 fault-free under cfg and
// returns when PREPARE-TO-COMMIT left the coordinator, and the run's T.
func prepareToCommitAt(t *testing.T, cfg Config, ws types.Writeset) (ptc, T sim.Time) {
	t.Helper()
	dry := New(cfg)
	dry.Begin(1, ws)
	dry.Run()
	for _, e := range dry.Recorder().Events() {
		if !e.IsMessage() && strings.Contains(e.Text, "distributing PREPARE-TO-COMMIT") {
			return e.At, sim.Time(dry.T())
		}
	}
	t.Fatalf("seed %d: no PREPARE-TO-COMMIT in the fault-free run", cfg.Seed)
	return 0, 0
}

// TestBeginAbortKeepsAtomicity: a coordinator that finds its own copy locked
// aborts at Begin, before any VOTE-REQ leaves. Under all five protocols and
// 20 delay seeds, a contended stream — three items, overlapping two-item
// writesets, a new transaction every T from rotating coordinators — runs
// through one coordinator crash (and restart) and one partition (and heal).
// No run may violate atomicity or leave the stores inconsistent, and every
// protocol must see Begin aborts, or the sweep did not exercise them.
func TestBeginAbortKeepsAtomicity(t *testing.T) {
	sites := []types.SiteID{1, 2, 3, 4, 5}
	asg := voting.MustAssignment(
		voting.Uniform("a", 3, 3, sites...),
		voting.Uniform("b", 2, 2, 1, 2, 3),
		voting.Uniform("c", 2, 2, 3, 4, 5),
	)
	pairs := []types.Writeset{
		{{Item: "a", Value: 1}, {Item: "b", Value: 1}},
		{{Item: "b", Value: 2}, {Item: "c", Value: 2}},
		{{Item: "c", Value: 3}, {Item: "a", Value: 3}},
	}
	for _, spec := range core.Standard(sites) {
		t.Run(spec.Name(), func(t *testing.T) {
			t.Parallel()
			atBegin, txns := 0, 0
			outs := make(map[types.Outcome]int)
			for seed := int64(1); seed <= 20; seed++ {
				cl := New(Config{Seed: seed, Assignment: asg, Spec: spec})
				T := sim.Time(cl.T())
				cl.CrashAt(3*T, 1)
				cl.RestartAt(9*T, 1)
				cl.PartitionAt(5*T, []types.SiteID{1, 2}, []types.SiteID{3, 4, 5})
				cl.HealAt(12 * T)
				var ids []types.TxnID
				for i := 0; i < 48; i++ {
					ids = append(ids, cl.Begin(sites[i%len(sites)], pairs[i%len(pairs)]))
					txns++
					cl.RunFor(cl.T())
				}
				cl.Run()
				for _, id := range ids {
					outs[cl.GroupOutcome(id, sites)]++
				}
				if v := cl.Violations(); len(v) != 0 {
					t.Fatalf("seed %d: violations %v", seed, v)
				}
				if issues := cl.CheckStores(); len(issues) != 0 {
					t.Fatalf("seed %d: store issues %v", seed, issues)
				}
				for _, e := range cl.Recorder().Events() {
					if !e.IsMessage() && strings.Contains(e.Text, "aborts at BEGIN") {
						atBegin++
					}
				}
			}
			t.Logf("%d of %d transactions aborted at Begin; group outcomes %v", atBegin, txns, outs)
			if atBegin == 0 {
				t.Error("no transaction aborted at Begin")
			}
		})
	}
}
