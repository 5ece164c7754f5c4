package simnet

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"qcommit/internal/msg"
	"qcommit/internal/sim"
	"qcommit/internal/types"
)

// refTopology is the map-backed topology Network's SiteTables are held to:
// the bookkeeping as it was kept before the tables, one map per concern.
type refTopology struct {
	registered map[types.SiteID]bool
	down       map[types.SiteID]bool
	group      map[types.SiteID]int
}

func (r *refTopology) connected(a, b types.SiteID) bool {
	return !r.down[a] && !r.down[b] && r.group[a] == r.group[b]
}

func (r *refTopology) sites() []types.SiteID {
	out := make([]types.SiteID, 0, len(r.registered))
	for id := range r.registered {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (r *refTopology) groups() [][]types.SiteID {
	byGroup := make(map[int][]types.SiteID)
	for _, id := range r.sites() {
		byGroup[r.group[id]] = append(byGroup[r.group[id]], id)
	}
	keys := make([]int, 0, len(byGroup))
	for k := range byGroup {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][]types.SiteID, 0, len(keys))
	for _, k := range keys {
		out = append(out, byGroup[k])
	}
	return out
}

// TestTopologyMatchesMapReference drives Network and the map reference with
// random Register/Crash/Recover/Partition/Heal over IDs that include 0,
// negatives, IDs never registered, the edge of the dense range and IDs far
// beyond it, and compares every query after every step.
func TestTopologyMatchesMapReference(t *testing.T) {
	ids := []types.SiteID{0, 1, 2, 3, 5, 8, 13, 31, 4095, 4096, 1 << 20, math.MaxInt32, -1, -7, math.MinInt32}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New(sim.NewScheduler(seed), Config{})
		ref := &refTopology{registered: map[types.SiteID]bool{}, down: map[types.SiteID]bool{}, group: map[types.SiteID]int{}}
		pick := func() types.SiteID { return ids[rng.Intn(len(ids))] }
		for step := 0; step < 300; step++ {
			switch rng.Intn(5) {
			case 0:
				id := pick()
				n.Register(id, func(msg.Envelope) {})
				ref.registered[id], ref.down[id] = true, false
			case 1:
				id := pick()
				n.Crash(id)
				ref.down[id] = true
			case 2:
				id := pick()
				n.Recover(id)
				ref.down[id] = false
			case 3:
				groups := make([][]types.SiteID, 1+rng.Intn(3))
				for i := range groups {
					for k := rng.Intn(4); k > 0; k-- {
						groups[i] = append(groups[i], pick())
					}
				}
				n.Partition(groups...)
				ref.group = map[types.SiteID]int{}
				for gi, g := range groups {
					for _, id := range g {
						ref.group[id] = gi + 1
					}
				}
			case 4:
				n.Heal()
				ref.group = map[types.SiteID]int{}
			}
			for _, a := range ids {
				if got, want := n.Down(a), ref.down[a]; got != want {
					t.Fatalf("seed %d step %d: Down(%d) = %v, reference %v", seed, step, a, got, want)
				}
				if got, want := n.GroupOf(a), ref.group[a]; got != want {
					t.Fatalf("seed %d step %d: GroupOf(%d) = %d, reference %d", seed, step, a, got, want)
				}
				for _, b := range ids {
					if got, want := n.Connected(a, b), ref.connected(a, b); got != want {
						t.Fatalf("seed %d step %d: Connected(%d, %d) = %v, reference %v", seed, step, a, b, got, want)
					}
				}
			}
			if got, want := n.Sites(), ref.sites(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Sites = %v, reference %v", seed, step, got, want)
			}
			if got, want := n.Groups(), ref.groups(); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("seed %d step %d: Groups = %v, reference %v", seed, step, got, want)
			}
		}
	}
}

// TestSendDeliverAllocs pins the cost model: once the delivery pool and the
// heap have grown, a send and its delivery allocate nothing (codec off; the
// codec's decoded message is an allocation of its own).
func TestSendDeliverAllocs(t *testing.T) {
	sched := sim.NewScheduler(1)
	n := New(sched, Config{MinDelay: sim.Millisecond, MaxDelay: 5 * sim.Millisecond})
	delivered := 0
	n.Register(1, func(msg.Envelope) {})
	n.Register(2, func(msg.Envelope) { delivered++ })
	var m msg.Message = msg.Commit{Txn: 1}
	sendDeliver := func() {
		n.Send(1, 2, m)
		sched.Run()
	}
	sendDeliver()
	if allocs := testing.AllocsPerRun(1000, sendDeliver); allocs != 0 {
		t.Errorf("send → deliver allocates %v times, want 0", allocs)
	}
	if delivered != 1002 {
		t.Errorf("delivered %d messages, want 1002", delivered)
	}
}

// BenchmarkNetworkSendDeliver is one message through the network: the send
// checks, the delay draw, one scheduler slot and the delivery re-check.
func BenchmarkNetworkSendDeliver(b *testing.B) {
	sched := sim.NewScheduler(1)
	n := New(sched, Config{MinDelay: sim.Millisecond, MaxDelay: 5 * sim.Millisecond})
	for id := types.SiteID(1); id <= 8; id++ {
		n.Register(id, func(msg.Envelope) {})
	}
	var m msg.Message = msg.Commit{Txn: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Send(types.SiteID(1+i%8), types.SiteID(1+(i+3)%8), m)
		if i%64 == 63 {
			sched.Run()
		}
	}
	sched.Run()
}
