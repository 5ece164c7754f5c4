package churn

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"

	"qcommit/internal/avail"
	"qcommit/internal/sim"
	"qcommit/internal/storage"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/workload"
)

// EventKind classifies a fault-timeline event.
type EventKind uint8

// Timeline event kinds, in deterministic tie-break order: at equal times a
// failure is applied before its repair counterpart so a site whose repair
// draw rounds to zero still observes one down instant, and partitions form
// before they heal.
const (
	// EventCrash takes one site down (volatile state lost, WAL kept).
	EventCrash EventKind = iota
	// EventPartition splits the network into Groups.
	EventPartition
	// EventRestart brings one site back (WAL replay + anti-entropy).
	EventRestart
	// EventHeal reconnects the network.
	EventHeal
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventCrash:
		return "crash"
	case EventPartition:
		return "partition"
	case EventRestart:
		return "restart"
	default:
		return "heal"
	}
}

// Event is one scheduled fault or repair on the timeline.
type Event struct {
	At   sim.Time
	Kind EventKind
	// Site is the subject of EventCrash/EventRestart.
	Site types.SiteID
	// Groups is the partition layout of EventPartition.
	Groups [][]types.SiteID
}

// arrival is one pre-drawn transaction submission.
type arrival struct {
	At sim.Time
	// Coord is the preferred coordinator; if it is down at submission time
	// the runner re-routes to the lowest-numbered up participant.
	Coord        types.SiteID
	Writeset     types.Writeset
	Participants []types.SiteID
}

// coordinator is the site the client submits a to: Coord if up, else the
// lowest-numbered live participant, else 0 (rejected).
func (a *arrival) coordinator(up func(types.SiteID) bool) types.SiteID {
	if up(a.Coord) {
		return a.Coord
	}
	for _, p := range a.Participants {
		if up(p) {
			return p
		}
	}
	return 0
}

// script is everything one study run needs, drawn up front so every protocol
// column replays the identical world: the replica placement, the fault
// timeline, and the transaction stream.
type script struct {
	sites    []types.SiteID
	asgn     *voting.Assignment
	events   []Event
	arrivals []arrival
	// repairs are the indices into events of EventRestart/EventHeal, where
	// the runner re-kicks blocked transactions.
	repairs []int
	// siteDownNS is the summed per-site down time within the horizon;
	// partitionedNS is the time the network spent split.
	siteDownNS    int64
	partitionedNS int64
	// Hybrid-engine views of the script, computed on first use and shared
	// by every protocol column of the run (scripts are evaluated by one
	// goroutine at a time). The plans carry everything about an arrival
	// that is protocol-independent: probes, rerouting, reachability and
	// the vote/ack round-trip arithmetic; the partners are conflictClusters'.
	hybridPartner []int
	hybridPlans   []arrivalPlan
	hybridSeed    int64
	// seeds is the initial store table per site, built by the first
	// newWorld and shared read-only by every world of the run (replay's and
	// the hybrid's fallback) via engine.Config.SeedStores.
	seeds map[types.SiteID]map[types.ItemID]storage.Versioned
}

// expDur draws an exponentially distributed duration with the given mean,
// rounded up so a positive mean never yields a zero-length interval.
func expDur(rng *rand.Rand, mean sim.Duration) sim.Duration {
	d := sim.Duration(rng.ExpFloat64() * float64(mean))
	if d <= 0 {
		d = 1
	}
	return d
}

// generateScript draws the run script for one seed. Generation is
// deterministic in (params, seed): a single rand source is consumed in a
// fixed order (placement, per-site failure processes, partition process,
// arrival times), and the transaction mix uses its own derived-seed
// generator so workload draws never shift fault draws or vice versa.
func generateScript(params Params, seed int64) (*script, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := &script{}

	// Replica placement: CopiesPerItem random sites per item, one vote per
	// copy, majority quorums — the avail sweep's placement model.
	sc.sites = make([]types.SiteID, params.NumSites)
	for i := range sc.sites {
		sc.sites[i] = types.SiteID(i + 1)
	}
	// Every item's copies are a window of one backing array, drawn from one
	// reused permutation buffer.
	r, w := voting.MajorityQuorums(params.CopiesPerItem)
	configs := make([]voting.ItemConfig, params.NumItems)
	k := params.CopiesPerItem
	copies := make([]voting.Copy, params.NumItems*k)
	perm := make([]int, params.NumSites)
	for i := range configs {
		avail.PermInto(rng, perm)
		cs := copies[i*k : (i+1)*k : (i+1)*k]
		for j := range cs {
			cs[j] = voting.Copy{Site: sc.sites[perm[j]], Votes: 1}
		}
		configs[i] = voting.ItemConfig{Item: types.ItemID("item" + strconv.Itoa(i+1)), Copies: cs, R: r, W: w}
	}
	asgn, err := voting.NewAssignment(configs...)
	if err != nil {
		return nil, err
	}
	sc.asgn = asgn

	horizon := sim.Time(params.Horizon)

	// Per-site alternating up/down renewal process: up ~ Exp(MTTF),
	// down ~ Exp(MTTR). A site mid-repair at the horizon stays down.
	if params.MTTF > 0 {
		for _, site := range sc.sites {
			t := sim.Time(0)
			for {
				t = t.Add(expDur(rng, params.MTTF))
				if t >= horizon {
					break
				}
				sc.events = append(sc.events, Event{At: t, Kind: EventCrash, Site: site})
				down := t
				t = t.Add(expDur(rng, params.MTTR))
				if t >= horizon {
					sc.siteDownNS += int64(horizon - down)
					break
				}
				sc.siteDownNS += int64(t - down)
				sc.events = append(sc.events, Event{At: t, Kind: EventRestart, Site: site})
			}
		}
	}

	// Global partition renewal process: connected ~ Exp(PartitionMTBF),
	// split ~ Exp(PartitionMTTR). Each split draws a fresh random layout of
	// 2..MaxGroups non-empty groups.
	if params.PartitionMTBF > 0 {
		t := sim.Time(0)
		for {
			t = t.Add(expDur(rng, params.PartitionMTBF))
			if t >= horizon {
				break
			}
			sc.events = append(sc.events, Event{At: t, Kind: EventPartition, Groups: randomGroups(rng, sc.sites, params.MaxGroups)})
			split := t
			t = t.Add(expDur(rng, params.PartitionMTTR))
			if t >= horizon {
				sc.partitionedNS += int64(horizon - split)
				break
			}
			sc.partitionedNS += int64(t - split)
			sc.events = append(sc.events, Event{At: t, Kind: EventHeal})
		}
	}

	slices.SortStableFunc(sc.events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Site, b.Site))
	})
	for i, ev := range sc.events {
		if ev.Kind == EventRestart || ev.Kind == EventHeal {
			sc.repairs = append(sc.repairs, i)
		}
	}

	// Transaction stream: exponential inter-arrival times from the main
	// source, writesets and coordinators from a derived-seed workload
	// generator.
	wgen, err := workload.NewGenerator(asgn, workload.Mix{
		WritesPerTxn: params.WritesPerTxn,
		HotFraction:  params.HotFraction,
	}, seed^workloadSeedMix)
	if err != nil {
		return nil, err
	}
	t := sim.Time(0)
	for {
		t = t.Add(expDur(rng, params.MeanInterarrival))
		if t >= horizon {
			break
		}
		txn := wgen.Next()
		sc.arrivals = append(sc.arrivals, arrival{
			At:           t,
			Coord:        txn.Coord,
			Writeset:     txn.Writeset,
			Participants: txn.Participants,
		})
	}
	return sc, nil
}

// workloadSeedMix decorrelates the workload generator's seed from the fault
// rng's seed (an arbitrary odd constant).
const workloadSeedMix = 0x5bf0_3635

// Epoch is a maximal interval [Start, End) of a fault timeline over which
// the world is static: no site crashes or restarts and the partition layout
// does not change. The epoch view is the raw event stream re-expressed as
// state: where events say what changed, an epoch says what held — which is
// what the hybrid engine reads an arrival's world from.
type Epoch struct {
	Start sim.Time
	End   sim.Time
	// Down[s] reports whether site s is down throughout the epoch; sites
	// are the contiguous IDs 1..numSites, index 0 is unused.
	Down []bool
	// GroupOf[s] is the partition group of site s, mirroring
	// simnet.Network's convention: all zeros when fully connected, and
	// after a partition the listed groups get 1-based numbers with
	// unlisted sites sharing the implicit residual group 0.
	GroupOf []int
}

// Up reports whether site s is up throughout the epoch.
func (e *Epoch) Up(s types.SiteID) bool { return !e.Down[s] }

// Connected mirrors simnet.Network.Connected over the epoch's static
// state: both sites up and in the same partition group.
func (e *Epoch) Connected(a, b types.SiteID) bool {
	if e.Down[a] || e.Down[b] {
		return false
	}
	return e.GroupOf[a] == e.GroupOf[b]
}

// EpochsOf segments a time-sorted fault-event stream over sites 1..numSites
// into epochs covering [0, horizon). Events at identical timestamps are
// applied together in stream order and share one boundary, so no
// zero-length epochs are emitted; events at or past the horizon are
// ignored. The returned epochs tile [0, horizon) exactly: the first starts
// at 0, each next starts where the previous ended, and the last ends at
// the horizon.
func EpochsOf(events []Event, numSites int, horizon sim.Time) []Epoch {
	down := make([]bool, numSites+1)
	groupOf := make([]int, numSites+1)
	var out []Epoch
	start := sim.Time(0)
	snapshot := func(end sim.Time) {
		e := Epoch{
			Start:   start,
			End:     end,
			Down:    make([]bool, numSites+1),
			GroupOf: make([]int, numSites+1),
		}
		copy(e.Down, down)
		copy(e.GroupOf, groupOf)
		out = append(out, e)
	}
	for _, ev := range events {
		if ev.At >= horizon {
			break
		}
		if ev.At > start {
			snapshot(ev.At)
			start = ev.At
		}
		switch ev.Kind {
		case EventCrash:
			down[ev.Site] = true
		case EventRestart:
			down[ev.Site] = false
		case EventPartition:
			for i := range groupOf {
				groupOf[i] = 0
			}
			for gi, g := range ev.Groups {
				for _, s := range g {
					groupOf[s] = gi + 1
				}
			}
		case EventHeal:
			for i := range groupOf {
				groupOf[i] = 0
			}
		}
	}
	if start < horizon {
		snapshot(horizon)
	}
	return out
}

// epochs is the script's epoch view of its own fault timeline.
func (sc *script) epochs(horizon sim.Time) []Epoch {
	return EpochsOf(sc.events, len(sc.sites), horizon)
}

// randomGroups splits sites into 2..maxGroups non-empty groups by
// round-robin over a random permutation (the avail scenario generator's
// partition model).
func randomGroups(rng *rand.Rand, sites []types.SiteID, maxGroups int) [][]types.SiteID {
	numGroups := 2 + rng.Intn(maxGroups-1)
	if numGroups > len(sites) {
		numGroups = len(sites)
	}
	perm := rng.Perm(len(sites))
	groups := make([][]types.SiteID, numGroups)
	for i, pi := range perm {
		gi := i % numGroups
		groups[gi] = append(groups[gi], sites[pi])
	}
	return groups
}
