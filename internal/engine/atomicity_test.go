package engine

import (
	"math/rand"
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/sim"
	"qcommit/internal/simnet"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// randomSchedule runs one transaction under a randomly generated failure
// schedule: coordinator and participant crashes at random times, a random
// network partition (possibly healing later), random restarts, plus ambient
// message loss and duplication. It returns the cluster for inspection.
func randomSchedule(t testing.TB, spec core.Spec, seed int64, loss, dup float64) *Cluster {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	// Random placement: 2 items, each on 4 of 8 sites, r=2/w=3.
	sites := []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
	place := func() []types.SiteID {
		perm := rng.Perm(8)
		out := make([]types.SiteID, 4)
		for i := 0; i < 4; i++ {
			out[i] = sites[perm[i]]
		}
		return out
	}
	asgn := voting.MustAssignment(
		voting.Uniform("x", 2, 3, place()...),
		voting.Uniform("y", 2, 3, place()...),
	)
	cl := New(Config{
		Seed:       seed,
		Assignment: asgn,
		Spec:       spec,
		ExtraSites: sites, // random placement may not cover all 8
		Net: simnet.Config{
			MinDelay: 1 * sim.Millisecond,
			MaxDelay: 10 * sim.Millisecond,
			LossProb: loss,
			DupProb:  dup,
			Codec:    true,
		},
	})

	ws := types.Writeset{{Item: "x", Value: rng.Int63n(100)}, {Item: "y", Value: rng.Int63n(100)}}
	participants := asgn.Participants(ws.Items())
	coord := participants[rng.Intn(len(participants))]
	cl.Begin(coord, ws)

	// The commit procedure takes roughly 30–60 ms of virtual time; draw
	// failure times across (0, 80ms] so every phase gets hit.
	rt := func() sim.Time { return sim.Time(1 + rng.Int63n(80_000_000)) }

	// Crash the coordinator with high probability (that is the interesting
	// case), and up to two other sites.
	if rng.Float64() < 0.8 {
		cl.CrashAt(rt(), coord)
	}
	for i := 0; i < rng.Intn(3); i++ {
		victim := sites[rng.Intn(len(sites))]
		cl.CrashAt(rt(), victim)
		if rng.Float64() < 0.5 {
			cl.RestartAt(rt()+sim.Time(20_000_000), victim)
		}
	}
	// Random partition into 2 or 3 groups, possibly healing later.
	if rng.Float64() < 0.8 {
		g := 2 + rng.Intn(2)
		perm := rng.Perm(8)
		groups := make([][]types.SiteID, g)
		for i, pi := range perm {
			groups[i%g] = append(groups[i%g], sites[pi])
		}
		cl.PartitionAt(rt(), groups...)
		if rng.Float64() < 0.4 {
			cl.HealAt(sim.Time(100_000_000) + rt())
		}
	}
	cl.Run()
	return cl
}

// TestAtomicityUnderRandomFailureSchedules asserts Theorem 1 empirically:
// across randomized crash/partition/loss schedules, none of the correct
// protocols ever terminates a transaction inconsistently.
func TestAtomicityUnderRandomFailureSchedules(t *testing.T) {
	specs := []core.Spec{
		{Variant: core.TwoPC},
		core.Uniform([]types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}, 5, 4),
		{Variant: core.Protocol1},
		{Variant: core.Protocol2},
	}
	const runs = 120
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= runs; seed++ {
				cl := randomSchedule(t, spec, seed, 0.05, 0.05)
				if v := cl.Violations(); len(v) != 0 {
					t.Fatalf("seed %d: %v", seed, v)
				}
			}
		})
	}
}

// TestThreePCViolatesUnderRandomPartitions documents the baseline's failure
// mode: across the same schedule distribution, 3PC's site-failure
// termination protocol does terminate transactions inconsistently in a
// measurable fraction of runs — the statistical form of Example 2.
func TestThreePCViolatesUnderRandomPartitions(t *testing.T) {
	violations := 0
	const runs = 120
	for seed := int64(1); seed <= runs; seed++ {
		cl := randomSchedule(t, core.Spec{Variant: core.ThreePC}, seed, 0.05, 0.05)
		if len(cl.Violations()) > 0 {
			violations++
		}
	}
	if violations == 0 {
		t.Error("3PC never violated atomicity across random partitions — the Example 2 failure mode should appear")
	}
	t.Logf("3PC violated atomicity in %d/%d random schedules", violations, runs)
}

// TestTerminalStatesConsistentAndLocksReleased: whenever a site reaches a
// terminal state, its transaction locks are released; blocked sites hold
// theirs — the precise coupling avail.Analyze depends on.
func TestTerminalStatesConsistentAndLocksReleased(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		cl := randomSchedule(t, core.Spec{Variant: core.Protocol1}, seed, 0, 0)
		for _, id := range cl.Sites() {
			for txn := types.TxnID(1); txn <= 1; txn++ {
				switch cl.OutcomeAt(id, txn) {
				case types.OutcomeCommitted, types.OutcomeAborted:
					if items := cl.Site(id).Locks().HeldItems(txn); len(items) != 0 {
						t.Fatalf("seed %d site %s: terminal but still holds %v", seed, id, items)
					}
				case types.OutcomeBlocked:
					// Blocked sites must hold at least one local copy lock
					// if they store any written item.
					// (Holding zero is possible when the site stores no
					// copy of the writeset, so no assertion on emptiness.)
				}
			}
		}
	}
}

// TestCommittedValueAppliedEverywhereReachable: after a run with no
// failures injected beyond ambient loss, if the transaction committed, every
// up site's copies reflect the committed values at the same version.
func TestCommittedValueAppliedEverywhereReachable(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		asgn := voting.MustAssignment(
			voting.Uniform("x", 2, 3, 1, 2, 3, 4),
			voting.Uniform("y", 2, 3, 5, 6, 7, 8),
		)
		cl := New(Config{Seed: seed, Assignment: asgn, Spec: core.Spec{Variant: core.Protocol2},
			Net: simnet.Config{MinDelay: sim.Millisecond, MaxDelay: 10 * sim.Millisecond, LossProb: 0.05, Codec: true}})
		ws := types.Writeset{{Item: "x", Value: 7}, {Item: "y", Value: 9}}
		txn := cl.Begin(1, ws)
		cl.Run()
		if cl.GroupOutcome(txn, cl.Sites()) != types.OutcomeCommitted {
			continue // loss may abort or block; only committed runs checked
		}
		for _, id := range cl.Sites() {
			if cl.OutcomeAt(id, txn) != types.OutcomeCommitted {
				continue // a straggler may be blocked if its COMMIT was lost
			}
			st := cl.Site(id).Store()
			for _, u := range ws {
				if !st.Has(u.Item) {
					continue
				}
				v, err := st.Read(u.Item)
				if err != nil || v.Value != u.Value {
					t.Fatalf("seed %d site %s %s = %+v, want %d", seed, id, u.Item, v, u.Value)
				}
			}
		}
	}
}
