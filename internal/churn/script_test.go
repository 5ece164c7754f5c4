package churn

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qcommit/internal/sim"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// refGenerateScript is the script generator as it was written first, kept as
// the reference for generateScript: rand.Perm per item and per partition,
// fmt.Sprintf item names, a map of chosen items per transaction, map-based
// participant sets computed once for the coordinator draw and once more for
// the arrival, and sort.SliceStable over the fault timeline. Every draw of
// generateScript must stay this one's.
func refGenerateScript(params Params, seed int64) (*script, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := &script{}
	sc.sites = make([]types.SiteID, params.NumSites)
	for i := range sc.sites {
		sc.sites[i] = types.SiteID(i + 1)
	}
	r, w := voting.MajorityQuorums(params.CopiesPerItem)
	configs := make([]voting.ItemConfig, params.NumItems)
	for i := range configs {
		perm := rng.Perm(params.NumSites)
		copies := make([]voting.Copy, params.CopiesPerItem)
		for j := range copies {
			copies[j] = voting.Copy{Site: sc.sites[perm[j]], Votes: 1}
		}
		configs[i] = voting.ItemConfig{Item: types.ItemID(fmt.Sprintf("item%d", i+1)), Copies: copies, R: r, W: w}
	}
	asgn, err := voting.NewAssignment(configs...)
	if err != nil {
		return nil, err
	}
	sc.asgn = asgn
	horizon := sim.Time(params.Horizon)
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
	if params.PartitionMTBF > 0 {
		t := sim.Time(0)
		for {
			t = t.Add(expDur(rng, params.PartitionMTBF))
			if t >= horizon {
				break
			}
			sc.events = append(sc.events, Event{At: t, Kind: EventPartition, Groups: refRandomGroups(rng, sc.sites, params.MaxGroups)})
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
	sort.SliceStable(sc.events, func(i, j int) bool {
		a, b := sc.events[i], sc.events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Site < b.Site
	})
	for i, ev := range sc.events {
		if ev.Kind == EventRestart || ev.Kind == EventHeal {
			sc.repairs = append(sc.repairs, i)
		}
	}

	// The workload generator's uniform and hot-spot draws, with the default
	// value range of 1000.
	wrng := rand.New(rand.NewSource(seed ^ workloadSeedMix))
	items := asgn.Items()
	t := sim.Time(0)
	for {
		t = t.Add(expDur(rng, params.MeanInterarrival))
		if t >= horizon {
			break
		}
		chosen := make(map[types.ItemID]bool, params.WritesPerTxn)
		var ws types.Writeset
		for len(chosen) < params.WritesPerTxn {
			var item types.ItemID
			if params.HotFraction > 0 && wrng.Float64() < params.HotFraction {
				item = items[0]
			} else {
				item = items[wrng.Intn(len(items))]
			}
			if chosen[item] {
				continue
			}
			chosen[item] = true
			ws = append(ws, types.Update{Item: item, Value: wrng.Int63n(1000)})
		}
		participants := refParticipants(asgn, refItems(ws))
		coord := participants[wrng.Intn(len(participants))]
		sc.arrivals = append(sc.arrivals, arrival{
			At:           t,
			Coord:        coord,
			Writeset:     ws,
			Participants: refParticipants(asgn, refItems(ws)),
		})
	}
	return sc, nil
}

// refRandomGroups is randomGroups over rand.Perm.
func refRandomGroups(rng *rand.Rand, sites []types.SiteID, maxGroups int) [][]types.SiteID {
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

// refItems is Writeset.Items over a map.
func refItems(w types.Writeset) []types.ItemID {
	seen := make(map[types.ItemID]bool, len(w))
	items := make([]types.ItemID, 0, len(w))
	for _, u := range w {
		if !seen[u.Item] {
			seen[u.Item] = true
			items = append(items, u.Item)
		}
	}
	return items
}

// refParticipants is Assignment.Participants over a map.
func refParticipants(a *voting.Assignment, items []types.ItemID) []types.SiteID {
	seen := make(map[types.SiteID]bool)
	for _, x := range items {
		ic, _ := a.Item(x)
		for _, c := range ic.Copies {
			seen[c.Site] = true
		}
	}
	out := make([]types.SiteID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// configsOf lists an assignment's item configurations in declaration order.
func configsOf(a *voting.Assignment) []voting.ItemConfig {
	var out []voting.ItemConfig
	a.ForEachItem(func(ic voting.ItemConfig) { out = append(out, ic) })
	return out
}

// requireSameScript fails unless got is want draw for draw.
func requireSameScript(t *testing.T, got, want *script) {
	t.Helper()
	switch {
	case !reflect.DeepEqual(got.sites, want.sites):
		t.Fatalf("sites %v, want %v", got.sites, want.sites)
	case !reflect.DeepEqual(configsOf(got.asgn), configsOf(want.asgn)):
		t.Fatalf("placement differs:\n got %v\nwant %v", configsOf(got.asgn), configsOf(want.asgn))
	case !reflect.DeepEqual(got.events, want.events):
		t.Fatalf("events differ:\n got %v\nwant %v", got.events, want.events)
	case !reflect.DeepEqual(got.repairs, want.repairs):
		t.Fatalf("repairs %v, want %v", got.repairs, want.repairs)
	case got.siteDownNS != want.siteDownNS || got.partitionedNS != want.partitionedNS:
		t.Fatalf("down %d / partitioned %d ns, want %d / %d", got.siteDownNS, got.partitionedNS, want.siteDownNS, want.partitionedNS)
	case len(got.arrivals) != len(want.arrivals):
		t.Fatalf("%d arrivals, want %d", len(got.arrivals), len(want.arrivals))
	}
	for i := range want.arrivals {
		if !reflect.DeepEqual(got.arrivals[i], want.arrivals[i]) {
			t.Fatalf("arrival %d: %+v, want %+v", i, got.arrivals[i], want.arrivals[i])
		}
	}
}

// scriptParams maps fuzz inputs onto a valid study point: 2–64 sites, 1–600
// items, any replication degree, up to 24 writes, a hot spot below 90 %,
// optional site churn and optional partitions.
func scriptParams(sites uint8, items uint16, copies, writes, hotPct uint8, mttfMs uint16, partMs uint16, groups uint8) Params {
	p := DefaultParams()
	p.NumSites = 2 + int(sites)%63
	p.NumItems = 1 + int(items)%600
	p.CopiesPerItem = 1 + int(copies)%p.NumSites
	p.WritesPerTxn = 1 + int(writes)%min(p.NumItems, 24)
	p.HotFraction = float64(hotPct%90) / 100
	p.Horizon = 2 * sim.Second
	p.MeanInterarrival = 20 * sim.Millisecond
	p.MTTF = sim.Duration(mttfMs%4000) * sim.Millisecond
	p.MTTR = 300 * sim.Millisecond
	if p.MTTF == 0 {
		p.MTTR = 0
	}
	p.PartitionMTBF = sim.Duration(partMs%1500) * sim.Millisecond
	p.PartitionMTTR = 250 * sim.Millisecond
	p.MaxGroups = 2 + int(groups)%4
	if p.PartitionMTBF == 0 {
		p.PartitionMTTR = 0
	}
	return p
}

// TestGenerateScriptMatchesReference pins generateScript to the reference on
// the study points the repository runs and on a few corners: one item, every
// site a copy, a write to every item, a hot spot and partitions.
func TestGenerateScriptMatchesReference(t *testing.T) {
	simChurn := DefaultParams()
	simChurn.NumSites, simChurn.NumItems, simChurn.CopiesPerItem = 32, 512, 4
	simChurn.MeanInterarrival, simChurn.MTTF, simChurn.MTTR = 25*sim.Millisecond, 20*sim.Second, sim.Second
	cases := map[string]Params{
		"default":   DefaultParams(),
		"partition": testParams(),
		"sim_churn": simChurn,
		"corners":   scriptParams(1, 0, 0, 0, 0, 900, 0, 0),
		"full":      scriptParams(6, 7, 7, 7, 50, 1200, 700, 3),
	}
	for name, params := range cases {
		for _, seed := range []int64{1, 2, 1_000_003, -7} {
			want, err := refGenerateScript(params, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := generateScript(params, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSameScript(t, got, want)
		}
	}
}

// FuzzGenerateScriptMatchesReference drives generateScript and the reference
// over random study points and seeds; the two scripts must be identical.
func FuzzGenerateScriptMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(30), uint16(511), uint8(3), uint8(1), uint8(0), uint16(2000), uint16(0), uint8(1))
	f.Add(int64(-5), uint8(0), uint16(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(0), uint8(0))
	f.Add(int64(42), uint8(62), uint16(599), uint8(63), uint8(23), uint8(80), uint16(700), uint16(400), uint8(3))
	f.Add(int64(7), uint8(6), uint16(3), uint8(2), uint8(2), uint8(30), uint16(1500), uint16(1200), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, sites uint8, items uint16, copies, writes, hotPct uint8, mttfMs, partMs uint16, groups uint8) {
		params := scriptParams(sites, items, copies, writes, hotPct, mttfMs, partMs, groups)
		if err := params.validate(); err != nil {
			t.Fatalf("scriptParams built an invalid point: %v", err)
		}
		want, err := refGenerateScript(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := generateScript(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		requireSameScript(t, got, want)
	})
}
