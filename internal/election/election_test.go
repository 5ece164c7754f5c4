package election

import (
	"math/rand"
	"slices"
	"testing"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/sim"
	"qcommit/internal/simnet"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// harness wires election FSMs to a simulated network directly, without the
// full engine, so the election protocol is tested in isolation.
type harness struct {
	sched *sim.Scheduler
	net   *simnet.Network
	fsms  map[types.SiteID]*FSM
	asgn  *voting.Assignment
	won   map[types.SiteID]bool
	retry map[types.SiteID]int
	// suspects[s] are the sites s suspects of having failed.
	suspects map[types.SiteID][]types.SiteID
	// wonAt is when each winner won.
	wonAt map[types.SiteID]sim.Time
}

type testEnv struct {
	h    *harness
	self types.SiteID
}

func (e *testEnv) Self() types.SiteID                  { return e.self }
func (e *testEnv) Now() sim.Time                       { return e.h.sched.Now() }
func (e *testEnv) T() sim.Duration                     { return 10 * sim.Millisecond }
func (e *testEnv) Assignment() *voting.Assignment      { return e.h.asgn }
func (e *testEnv) Send(to types.SiteID, m msg.Message) { e.h.net.Send(e.self, to, m) }
func (e *testEnv) SetTimer(d sim.Duration, token int) {
	self := e.self
	e.h.sched.After(d, func() {
		if f := e.h.fsms[self]; f != nil {
			f.OnTimer(token, e)
		}
	})
}
func (e *testEnv) Append(wal.Record)              {}
func (e *testEnv) Commit(types.TxnID)             {}
func (e *testEnv) Abort(types.TxnID)              {}
func (e *testEnv) Block(types.TxnID)              {}
func (e *testEnv) RequestTermination(types.TxnID) {}
func (e *testEnv) TerminatorDone(types.TxnID)     {}
func (e *testEnv) Suspected(s types.SiteID) bool  { return slices.Contains(e.h.suspects[e.self], s) }
func (e *testEnv) AcquireLocks(types.TxnID) bool  { return true }
func (e *testEnv) Tracef(string, ...any)          {}

var _ protocol.Env = (*testEnv)(nil)

func newHarness(t *testing.T, seed int64, sites []types.SiteID) *harness {
	t.Helper()
	h := &harness{
		sched: sim.NewScheduler(seed),
		fsms:  make(map[types.SiteID]*FSM),
		won:   make(map[types.SiteID]bool),
		retry: make(map[types.SiteID]int),
		wonAt: make(map[types.SiteID]sim.Time),
	}
	h.net = simnet.New(h.sched, simnet.DefaultConfig())
	r, w := voting.MajorityQuorums(len(sites))
	h.asgn = voting.MustAssignment(voting.Uniform("x", r, w, sites...))
	for _, id := range sites {
		id := id
		h.net.Register(id, func(e msg.Envelope) {
			if f := h.fsms[id]; f != nil {
				f.OnMessage(e.From, e.Msg, &testEnv{h: h, self: id})
			}
		})
		f := New(1, id, sites, 0)
		f.OnElected = func(uint32) { h.won[id], h.wonAt[id] = true, h.sched.Now() }
		f.OnRetry = func() { h.retry[id]++ }
		h.fsms[id] = f
	}
	return h
}

func (h *harness) startAll() {
	for id, f := range h.fsms {
		id := id
		f := f
		h.sched.At(0, func() { f.Start(&testEnv{h: h, self: id}) })
	}
}

func TestLowestSiteWins(t *testing.T) {
	sites := []types.SiteID{1, 2, 3, 4}
	h := newHarness(t, 1, sites)
	h.startAll()
	h.sched.Run()
	if !h.won[1] {
		t.Error("site1 (lowest) should win")
	}
	for _, id := range []types.SiteID{2, 3, 4} {
		if h.won[id] {
			t.Errorf("site%d should defer", id)
		}
	}
}

func TestWinnerAfterLowestCrashes(t *testing.T) {
	sites := []types.SiteID{1, 2, 3, 4}
	h := newHarness(t, 2, sites)
	h.net.Crash(1)
	delete(h.fsms, 1)
	h.startAll()
	h.sched.Run()
	if !h.won[2] {
		t.Error("site2 should win when site1 is down")
	}
	if h.won[3] || h.won[4] {
		t.Error("higher sites should defer to site2")
	}
}

// TestSuspectedBetterCandidateNotCalled: with site 1 dead and suspected by
// everyone (its patience ran out as their coordinator), site 2 has nobody to
// call and wins at once instead of after the 2T wait; 3 and 4 still call 2.
func TestSuspectedBetterCandidateNotCalled(t *testing.T) {
	sites := []types.SiteID{1, 2, 3, 4}
	h := newHarness(t, 2, sites)
	h.net.Crash(1)
	delete(h.fsms, 1)
	h.suspects = map[types.SiteID][]types.SiteID{2: {1}, 3: {1}, 4: {1}}
	h.startAll()
	h.sched.Run()
	if !h.won[2] || h.wonAt[2] != 0 {
		t.Errorf("site2 won=%v at %v, want at once", h.won[2], h.wonAt[2])
	}
	if h.won[3] || h.won[4] {
		t.Error("higher sites should still defer to site2")
	}
}

// TestWronglySuspectedCandidateRunsBeside: a suspected site that is alive
// campaigns as well; both win, which the termination protocols tolerate.
func TestWronglySuspectedCandidateRunsBeside(t *testing.T) {
	sites := []types.SiteID{1, 2, 3}
	h := newHarness(t, 3, sites)
	h.suspects = map[types.SiteID][]types.SiteID{2: {1}}
	h.startAll()
	h.sched.Run()
	if !h.won[1] || !h.won[2] || h.won[3] {
		t.Errorf("winners %v, want site1 and the site2 that suspects it", h.won)
	}
}

func TestOneWinnerPerPartition(t *testing.T) {
	sites := []types.SiteID{1, 2, 3, 4, 5, 6}
	h := newHarness(t, 3, sites)
	h.net.Partition([]types.SiteID{1, 2, 3}, []types.SiteID{4, 5, 6})
	h.startAll()
	h.sched.Run()
	if !h.won[1] {
		t.Error("site1 should win its partition")
	}
	if !h.won[4] {
		t.Error("site4 should win its partition")
	}
	if h.won[2] || h.won[3] || h.won[5] || h.won[6] {
		t.Errorf("unexpected extra winners: %v", h.won)
	}
}

func TestLostMessagesCanYieldTwoCoordinators(t *testing.T) {
	// The paper explicitly tolerates this: drop all messages between 1 and 2
	// so both believe they have priority.
	sites := []types.SiteID{1, 2, 3}
	h := newHarness(t, 4, sites)
	h.net.SetFilter(func(e msg.Envelope) bool {
		return (e.From == 1 && e.To == 2) || (e.From == 2 && e.To == 1)
	})
	h.startAll()
	h.sched.Run()
	if !h.won[1] || !h.won[2] {
		t.Errorf("expected both site1 and site2 to win, got %v", h.won)
	}
}

func TestDeferredRetriesWhenWinnerSilent(t *testing.T) {
	sites := []types.SiteID{1, 2}
	h := newHarness(t, 5, sites)
	// site1 answers the election (so site2 defers) but then "does nothing":
	// no CoordAnnounce follow-up activity reaches site2 because site1's FSM
	// wins silently and our harness never polls states. site2's patience
	// must eventually request a retry.
	h.startAll()
	h.sched.Run()
	if !h.won[1] {
		t.Fatal("site1 should win")
	}
	if h.retry[2] == 0 {
		t.Error("site2 deferred forever; expected a retry request after the winner stayed silent")
	}
}

func TestSingletonPartitionWinsImmediately(t *testing.T) {
	sites := []types.SiteID{3}
	h := newHarness(t, 6, sites)
	h.startAll()
	h.sched.Run()
	if !h.won[3] {
		t.Error("lone site should elect itself")
	}
	if h.fsms[3].Won() != true {
		t.Error("Won() should report true")
	}
}

func TestStopSilencesFSM(t *testing.T) {
	sites := []types.SiteID{1, 2}
	h := newHarness(t, 7, sites)
	h.fsms[2].Stop()
	h.startAll()
	h.sched.Run()
	if h.won[2] {
		t.Error("stopped FSM acted")
	}
}

func TestEpochInBallot(t *testing.T) {
	f := New(1, 5, []types.SiteID{5}, 7)
	if f.Epoch() != 7 {
		t.Errorf("Epoch = %d", f.Epoch())
	}
	if f.ballot>>32 != 7 {
		t.Errorf("ballot epoch bits = %d", f.ballot>>32)
	}
	if uint32(f.ballot) != 5 {
		t.Errorf("ballot site bits = %d", uint32(f.ballot))
	}
}

// TestLivenessProperty: for random crash subsets and random 2-way
// partitions, every partition that contains at least one live participant
// elects at least one coordinator (possibly after retries).
func TestLivenessProperty(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5) // 3..7 sites
		sites := make([]types.SiteID, n)
		for i := range sites {
			sites[i] = types.SiteID(i + 1)
		}
		h := newHarness(t, seed, sites)

		// Crash a random strict subset.
		crashed := map[types.SiteID]bool{}
		for _, s := range sites {
			if rng.Float64() < 0.3 {
				crashed[s] = true
			}
		}
		if len(crashed) == n {
			delete(crashed, sites[0])
		}
		for s := range crashed {
			h.net.Crash(s)
			delete(h.fsms, s)
		}

		// Random 2-way partition.
		var g1, g2 []types.SiteID
		for _, s := range sites {
			if rng.Float64() < 0.5 {
				g1 = append(g1, s)
			} else {
				g2 = append(g2, s)
			}
		}
		h.net.Partition(g1, g2)

		h.startAll()
		h.sched.Run()

		check := func(group []types.SiteID) {
			live := 0
			winners := 0
			for _, s := range group {
				if crashed[s] {
					continue
				}
				live++
				if h.won[s] {
					winners++
				}
			}
			if live > 0 && winners == 0 {
				t.Fatalf("seed %d: partition %v (live %d) elected nobody", seed, group, live)
			}
		}
		check(g1)
		check(g2)
	}
}
