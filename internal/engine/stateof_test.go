package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"qcommit/internal/avail"
	"qcommit/internal/core"
	"qcommit/internal/engine"
	"qcommit/internal/sim"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// checkStateOf holds every (site, txn) pair, txns 0 through last+1 (so
// txns a site never heard of, and one nobody has), to the replay reference:
// each site's view equals wal.Replay of its log, and StateOf equals the
// kernel's fast path backed by that replay.
func checkStateOf(t *testing.T, cl *engine.Cluster, last types.TxnID, where string) {
	t.Helper()
	for _, id := range cl.Sites() {
		site := cl.Site(id)
		recs, err := site.Log().Records()
		if err != nil {
			t.Fatal(err)
		}
		images := wal.Replay(recs)
		for txn := types.TxnID(0); txn <= last+1; txn++ {
			want := types.StateInitial
			if im := images[txn]; im != nil {
				want = im.State
			}
			if got := site.ViewState(txn); got != want {
				t.Fatalf("%s: site %s's view has %s in %v, its log replays to %v", where, id, txn, got, want)
			}
			if got, want := cl.StateOf(id, txn), cl.ReplayStateOf(id, txn, images); got != want {
				t.Fatalf("%s: StateOf(%s, %s) = %v, the replay reference says %v", where, id, txn, got, want)
			}
		}
	}
}

// TestStateOfMatchesReplayAvail runs avail's interrupted-commit scenarios
// under every standard protocol and checks StateOf after the set-up, after
// the coordinator's crash and partition, mid-termination, at quiescence, and
// after the coordinator restarts into a healed network.
func TestStateOfMatchesReplayAvail(t *testing.T) {
	gen, err := avail.NewScenarioGen(avail.DefaultScenarioParams())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 40; seed++ {
		sc, err := gen.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range avail.StandardBuilders() {
			spec := b.Build(sc)
			where := func(stage string) string { return fmt.Sprintf("seed %d %s %s", seed, spec.Name(), stage) }
			cl := engine.New(engine.Config{Seed: sc.Seed, Assignment: sc.Assignment, Spec: spec})
			txn := cl.SetupInterrupted(sc.Coord, sc.Writeset, sc.States)
			checkStateOf(t, cl, txn, where("set-up"))
			cl.Crash(sc.Coord)
			cl.Partition(sc.Partition...)
			checkStateOf(t, cl, txn, where("crash"))
			cl.RunFor(3 * cl.T())
			checkStateOf(t, cl, txn, where("mid-termination"))
			cl.Run()
			checkStateOf(t, cl, txn, where("quiescent"))
			cl.Heal()
			cl.Restart(sc.Coord)
			cl.Kick(txn)
			cl.Run()
			checkStateOf(t, cl, txn, where("restart"))
		}
	}
}

// interruptedStates freezes one txn in every local state: txn a commits
// (C, PC, W, q over item x) and txn b aborts (A, PA, W, q over item y).
func interruptedStates(cl *engine.Cluster) types.TxnID {
	cl.SetupInterrupted(1, types.Writeset{{Item: "x", Value: 1}}, map[types.SiteID]types.State{
		1: types.StateCommitted, 2: types.StatePC, 3: types.StateWait, 4: types.StateInitial,
	})
	return cl.SetupInterrupted(5, types.Writeset{{Item: "y", Value: 2}}, map[types.SiteID]types.State{
		5: types.StateAborted, 6: types.StatePA, 7: types.StateWait, 8: types.StateInitial,
	})
}

func paperAssignment(t testing.TB) *voting.Assignment {
	t.Helper()
	a, err := voting.NewAssignment(
		voting.Uniform("x", 2, 3, 1, 2, 3, 4),
		voting.Uniform("y", 2, 3, 5, 6, 7, 8),
	)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestStateOfMatchesReplayWALResume checks StateOf over file WALs: in the
// cluster that wrote them (SetupInterrupted images in all six states, and
// committed txns), and in a second cluster that resumes them before and
// after it finishes the in-doubt txns.
func TestStateOfMatchesReplayWALResume(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.Config{Seed: 3, Assignment: paperAssignment(t), Spec: core.Spec{Variant: core.Protocol1}, WALDir: dir}
	cl1 := engine.New(cfg)
	cl1.Begin(1, types.Writeset{{Item: "x", Value: 7}, {Item: "y", Value: 8}})
	cl1.Run()
	last := interruptedStates(cl1)
	checkStateOf(t, cl1, last, "set-up")
	cl1.Crash(1)
	cl1.Crash(5)
	cl1.Partition([]types.SiteID{1, 2, 5, 6}, []types.SiteID{3, 4}, []types.SiteID{7, 8})
	cl1.Run()
	checkStateOf(t, cl1, last, "partitioned")
	if err := cl1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Seed = 4
	cl2 := engine.New(cfg)
	defer cl2.Close()
	checkStateOf(t, cl2, last, "resumed")
	cl2.Run()
	checkStateOf(t, cl2, last, "resumed and run")
}

// TestStateOfMatchesReplayChurn drives a churn-shaped run (a stream of
// transactions under crashes, restarts, partitions and heals) under every
// standard protocol and checks StateOf after every slice of virtual time.
func TestStateOfMatchesReplayChurn(t *testing.T) {
	asgn, err := voting.NewAssignment(
		voting.Uniform("a", 2, 2, 1, 2, 3),
		voting.Uniform("b", 2, 2, 3, 4, 5),
		voting.Uniform("c", 2, 2, 5, 6, 1),
		voting.Uniform("d", 2, 2, 2, 4, 6),
	)
	if err != nil {
		t.Fatal(err)
	}
	items := asgn.Items()
	for _, spec := range core.Standard(nil) {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cl := engine.New(engine.Config{Seed: seed, Assignment: asgn, Spec: spec, ExtraSites: []types.SiteID{7}})
			cl.Recorder().Disable()
			sites := cl.Sites()
			var last types.TxnID
			var restarts []sim.Time
			down := make(map[types.SiteID]sim.Time) // crashed site → restart time
			for slice := 0; slice < 60; slice++ {
				now := cl.Scheduler().Now()
				for _, id := range sites {
					if at, ok := down[id]; ok && at <= now {
						cl.Restart(id)
						delete(down, id)
						restarts = append(restarts, now)
					}
				}
				switch rng.Intn(8) {
				case 0:
					if id := sites[rng.Intn(len(sites))]; !cl.Network().Down(id) {
						cl.Crash(id)
						down[id] = now + sim.Time(sim.Duration(2+rng.Intn(8))*cl.T())
					}
				case 1:
					cut := 1 + rng.Intn(len(sites)-1)
					cl.Partition(sites[:cut], sites[cut:])
				case 2:
					cl.Heal()
				}
				for n := rng.Intn(4); n > 0; n-- {
					i := rng.Intn(len(items))
					ws := types.Writeset{{Item: items[i], Value: int64(slice)}}
					if rng.Intn(2) == 0 {
						ws = append(ws, types.Update{Item: items[(i+1)%len(items)], Value: -int64(slice)})
					}
					if coord := sites[rng.Intn(len(sites))]; !cl.Network().Down(coord) {
						last = cl.Begin(coord, ws)
					}
				}
				cl.RunFor(cl.T())
				checkStateOf(t, cl, last, fmt.Sprintf("%s seed %d slice %d", spec.Name(), seed, slice))
			}
			cl.Heal()
			for _, id := range sites {
				if _, ok := down[id]; ok {
					cl.Restart(id)
				}
			}
			for txn := types.TxnID(1); txn <= last; txn++ {
				cl.Kick(txn)
			}
			cl.Run()
			checkStateOf(t, cl, last, fmt.Sprintf("%s seed %d end", spec.Name(), seed))
			if len(restarts) == 0 {
				t.Fatalf("%s seed %d: no site restarted", spec.Name(), seed)
			}
		}
	}
}

// loggedCluster is three sites after n transactions committed one after
// another: n txns in every site's log and every kernel's outcome record.
func loggedCluster(tb testing.TB, n int) *engine.Cluster {
	tb.Helper()
	asgn, err := voting.NewAssignment(voting.Uniform("x", 2, 2, 1, 2, 3))
	if err != nil {
		tb.Fatal(err)
	}
	cl := engine.New(engine.Config{Seed: 1, Assignment: asgn, Spec: core.Spec{Variant: core.Protocol1}})
	cl.Recorder().Disable()
	for i := 0; i < n; i++ {
		cl.Begin(1, types.Writeset{{Item: "x", Value: int64(i)}})
		cl.Run()
	}
	return cl
}

// TestGroupOutcomeUnknownTxnAllocatesNothing: asking every site about a txn
// none of them knows is map lookups, however long the logs are.
func TestGroupOutcomeUnknownTxnAllocatesNothing(t *testing.T) {
	cl := loggedCluster(t, 1000)
	all := cl.Sites()
	unknown := types.TxnID(1 << 40)
	var got types.Outcome
	allocs := testing.AllocsPerRun(100, func() { got = cl.GroupOutcome(unknown, all) })
	if got != types.OutcomeUnknown {
		t.Fatalf("GroupOutcome of an unknown txn = %v", got)
	}
	if allocs != 0 {
		t.Fatalf("GroupOutcome of an unknown txn after 1000 logged txns allocates %v times, want 0", allocs)
	}
}

// BenchmarkGroupOutcome asks all sites about a txn none of them knows (the
// common query of a churn study's tally) after 100 and after 10 000 logged
// txns: the two read the same.
func BenchmarkGroupOutcome(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("txns=%d", n), func(b *testing.B) {
			cl := loggedCluster(b, n)
			all := cl.Sites()
			unknown := types.TxnID(1 << 40)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cl.GroupOutcome(unknown, all) != types.OutcomeUnknown {
					b.Fatal("unknown txn has an outcome")
				}
			}
		})
	}
}
