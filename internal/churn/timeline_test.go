package churn

import (
	"reflect"
	"testing"

	"qcommit/internal/sim"
	"qcommit/internal/types"
)

// epochSig is a compact epoch literal for table-driven expectations: down
// and groupOf omit the unused index 0.
type epochSig struct {
	start, end sim.Time
	down       []bool
	groupOf    []int
}

func sigOf(e Epoch) epochSig {
	return epochSig{start: e.Start, end: e.End, down: e.Down[1:], groupOf: e.GroupOf[1:]}
}

func TestEpochsOf(t *testing.T) {
	const h = sim.Time(1000)
	up3 := []bool{false, false, false}
	one3 := []int{0, 0, 0}
	cases := []struct {
		name   string
		events []Event
		sites  int
		want   []epochSig
	}{
		{
			name:  "no events",
			sites: 3,
			want:  []epochSig{{0, h, up3, one3}},
		},
		{
			name:  "crash and restart",
			sites: 3,
			events: []Event{
				{At: 100, Kind: EventCrash, Site: 2},
				{At: 400, Kind: EventRestart, Site: 2},
			},
			want: []epochSig{
				{0, 100, up3, one3},
				{100, 400, []bool{false, true, false}, one3},
				{400, h, up3, one3},
			},
		},
		{
			name:  "same-timestamp events share one boundary",
			sites: 3,
			events: []Event{
				{At: 200, Kind: EventCrash, Site: 1},
				{At: 200, Kind: EventCrash, Site: 3},
				{At: 500, Kind: EventRestart, Site: 1},
				{At: 500, Kind: EventCrash, Site: 2},
			},
			want: []epochSig{
				{0, 200, up3, one3},
				{200, 500, []bool{true, false, true}, one3},
				{500, h, []bool{false, true, true}, one3},
			},
		},
		{
			name:  "partition and heal with residual group",
			sites: 4,
			events: []Event{
				// Site 4 is unlisted: it lands in the implicit residual
				// group 0, simnet's convention.
				{At: 300, Kind: EventPartition, Groups: [][]types.SiteID{{1, 2}, {3}}},
				{At: 700, Kind: EventHeal},
			},
			want: []epochSig{
				{0, 300, []bool{false, false, false, false}, []int{0, 0, 0, 0}},
				{300, 700, []bool{false, false, false, false}, []int{1, 1, 2, 0}},
				{700, h, []bool{false, false, false, false}, []int{0, 0, 0, 0}},
			},
		},
		{
			name:  "repartition replaces the previous layout",
			sites: 3,
			events: []Event{
				{At: 100, Kind: EventPartition, Groups: [][]types.SiteID{{1}, {2, 3}}},
				{At: 200, Kind: EventPartition, Groups: [][]types.SiteID{{1, 2}, {3}}},
			},
			want: []epochSig{
				{0, 100, up3, one3},
				{100, 200, up3, []int{1, 2, 2}},
				{200, h, up3, []int{1, 1, 2}},
			},
		},
		{
			name:  "event at time zero mutates the first epoch",
			sites: 2,
			events: []Event{
				{At: 0, Kind: EventCrash, Site: 1},
			},
			want: []epochSig{{0, h, []bool{true, false}, []int{0, 0}}},
		},
		{
			name:  "events at or past the horizon are ignored",
			sites: 2,
			events: []Event{
				{At: 600, Kind: EventCrash, Site: 2},
				{At: h, Kind: EventRestart, Site: 2},
				{At: h + 50, Kind: EventCrash, Site: 1},
			},
			want: []epochSig{
				{0, 600, []bool{false, false}, []int{0, 0}},
				{600, h, []bool{false, true}, []int{0, 0}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := EpochsOf(tc.events, tc.sites, h)
			sigs := make([]epochSig, len(got))
			for i, e := range got {
				sigs[i] = sigOf(e)
			}
			if !reflect.DeepEqual(sigs, tc.want) {
				t.Errorf("epochs mismatch:\ngot  %+v\nwant %+v", sigs, tc.want)
			}
			// Structural invariants: tiling, no zero-length epochs.
			for i, e := range got {
				if e.End <= e.Start {
					t.Errorf("epoch %d has non-positive length: %+v", i, sigOf(e))
				}
				if i == 0 && e.Start != 0 {
					t.Errorf("first epoch starts at %v", e.Start)
				}
				if i > 0 && e.Start != got[i-1].End {
					t.Errorf("epoch %d does not abut its predecessor", i)
				}
			}
			if got[len(got)-1].End != h {
				t.Errorf("last epoch ends at %v, want horizon", got[len(got)-1].End)
			}
		})
	}
}

func TestEpochPredicates(t *testing.T) {
	e := Epoch{
		Start:   100,
		End:     200,
		Down:    []bool{false, false, true, false, false},
		GroupOf: []int{0, 1, 1, 2, 0},
	}
	if !e.Up(1) || e.Up(2) {
		t.Error("Up misreads the down flags")
	}
	if e.Connected(1, 2) || e.Connected(2, 2) {
		t.Error("a down site must be disconnected, even from itself")
	}
	if e.Connected(1, 3) || e.Connected(1, 4) {
		t.Error("sites in different groups reported connected")
	}
	if !e.Connected(1, 1) || !e.Connected(3, 3) || !e.Connected(4, 4) {
		t.Error("an up site must be self-connected")
	}
}

// TestScriptEpochsMatchEvents cross-checks the epoch view of a generated
// script against a brute-force replay of its event stream: at every probe
// instant the epoch's up/connected state must agree with the state obtained
// by applying all events at or before that instant.
func TestScriptEpochsMatchEvents(t *testing.T) {
	params := testParams()
	sc, err := generateScript(params, 99)
	if err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(params.Horizon)
	eps := sc.epochs(horizon)
	if len(eps) < 3 {
		t.Fatalf("churny script produced only %d epochs", len(eps))
	}

	stateAt := func(at sim.Time) ([]bool, []int) {
		down := make([]bool, params.NumSites+1)
		groupOf := make([]int, params.NumSites+1)
		for _, ev := range sc.events {
			if ev.At > at {
				break
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
		return down, groupOf
	}

	for i, ep := range eps {
		// Probe the first instant and the last instant of the epoch.
		for _, at := range []sim.Time{ep.Start, ep.End - 1} {
			down, groupOf := stateAt(at)
			if !reflect.DeepEqual(ep.Down, down) {
				t.Fatalf("epoch %d at %v: down %v, events say %v", i, at, ep.Down, down)
			}
			for a := types.SiteID(1); int(a) <= params.NumSites; a++ {
				for b := types.SiteID(1); int(b) <= params.NumSites; b++ {
					want := !down[a] && !down[b] && groupOf[a] == groupOf[b]
					if got := ep.Connected(a, b); got != want {
						t.Fatalf("epoch %d at %v: Connected(%d,%d)=%v, events say %v", i, at, a, b, got, want)
					}
				}
			}
		}
	}
}
