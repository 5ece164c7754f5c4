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

// TestRestartQueryKeepsAtomicity sweeps the restart query (Kernel.Recover's
// OutcomeReq) across the commit path. Five sites, the item everywhere,
// majority quorums; the coordinator and one participant crash together just
// after PREPARE-TO-COMMIT, the survivors terminate, and the participant
// restarts before (1 T), during (4 T) or after (12 T) that termination —
// reachable, or cut off from everyone until 2 T after its restart. For the
// four three-phase protocols and 20 delay seeds, no run may violate
// atomicity, leave the stores inconsistent, or leave the restarted site and
// the survivors disagreeing; once the survivors have long agreed, a
// reachable restart must agree within two hops without campaigning. While the restarted site can reach nobody its
// unanswered query must cost no termination round: the first campaign it may
// start is its 3 T patience's, after the heal. (The cut lasts 2 T, not past
// that patience, because a lone 3PC terminator would then decide on its own
// state — Example 2's inconsistency, not the query's.) Some runs must end on
// an answered query and some on a campaign, or the sweep missed half its
// point.
func TestRestartQueryKeepsAtomicity(t *testing.T) {
	sites := []types.SiteID{1, 2, 3, 4, 5}
	specs := []core.Spec{
		{Variant: core.Protocol1},
		{Variant: core.Protocol2},
		core.Uniform(sites, 3, 3),
		{Variant: core.ThreePC},
	}
	ws := types.Writeset{{Item: "x", Value: 1}}
	for _, spec := range specs {
		t.Run(spec.Name(), func(t *testing.T) {
			t.Parallel()
			answered, campaigned := 0, 0
			for seed := int64(1); seed <= 20; seed++ {
				cfg := Config{Seed: seed, Assignment: voting.MustAssignment(voting.Uniform("x", 3, 3, sites...)), Spec: spec}
				ptc, T := prepareToCommitAt(t, cfg, ws)
				crash := ptc + sim.Time(seed%4)*T/4
				p := sites[1+seed%4]
				var others []types.SiteID
				for _, s := range sites {
					if s != p {
						others = append(others, s)
					}
				}
				for _, after := range []sim.Time{T, 4 * T, 12 * T} {
					for _, isolated := range []bool{false, true} {
						name := fmt.Sprintf("seed %d, site%d restarts at crash+%.0f T, isolated %v", seed, p, float64(after)/float64(T), isolated)
						cl := New(cfg)
						txn := cl.Begin(1, ws)
						cl.CrashAt(crash, 1)
						cl.CrashAt(crash, p)
						restart := crash + after
						if isolated {
							cl.PartitionAt(crash, []types.SiteID{p}, others)
							cl.HealAt(restart + 2*T)
						}
						cl.RestartAt(restart, p)
						cl.Run()
						if v := cl.Violations(); len(v) != 0 {
							t.Fatalf("%s: violations %v\n%s", name, v, cl.Recorder().Ladder(nil))
						}
						if issues := cl.CheckStores(); len(issues) != 0 {
							t.Fatalf("%s: store issues %v", name, issues)
						}
						want := cl.OutcomeAt(2, txn)
						for _, s := range sites[1:] {
							if o := cl.OutcomeAt(s, txn); (o != types.OutcomeCommitted && o != types.OutcomeAborted) || o != want {
								t.Fatalf("%s: site%d = %v, site2 = %v\n%s", name, s, o, want, cl.Recorder().Ladder(nil))
							}
						}
						var campaign sim.Time
						for _, e := range cl.Recorder().Events() {
							if !e.IsMessage() && e.Site == p && e.At >= restart && strings.Contains(e.Text, "campaigns") {
								campaign = e.At
								break
							}
						}
						decided := cl.Site(p).decidedAt[txn]
						switch {
						case decided < restart:
							// It learnt the outcome before its crash: nothing to rejoin.
						case isolated && campaign != 0 && campaign < restart+2*T:
							t.Errorf("%s: the cut-off site campaigned %.2f T after its restart, before its patience ran out", name, float64(campaign-restart)/float64(T))
						case campaign != 0 && campaign < decided:
							campaigned++
						case decided-restart <= 2*T:
							answered++
						}
						if after == 12*T && !isolated && (campaign != 0 || decided < restart || decided-restart > 2*T) {
							t.Errorf("%s: with the survivors long agreed, the restarted site decided at restart%+.2f T (campaign %v), want within two hops and no campaign",
								name, float64(decided-restart)/float64(T), campaign != 0)
						}
					}
				}
			}
			t.Logf("of 120 restarts, %d agreed within two hops without campaigning and %d campaigned first", answered, campaigned)
			if answered == 0 || campaigned == 0 {
				t.Errorf("the sweep never exercised both ends: %d answered, %d campaigned", answered, campaigned)
			}
		})
	}
}
