package types

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestStateStrings(t *testing.T) {
	cases := map[State]string{
		StateInitial:   "q",
		StateWait:      "W",
		StatePC:        "PC",
		StatePA:        "PA",
		StateCommitted: "C",
		StateAborted:   "A",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
	if got := State(99).String(); got != "State(99)" {
		t.Errorf("unknown state string = %q", got)
	}
}

func TestStateClassification(t *testing.T) {
	if !StateCommitted.Terminal() || !StateAborted.Terminal() {
		t.Error("C and A must be terminal")
	}
	for _, st := range []State{StateInitial, StateWait, StatePC, StatePA} {
		if st.Terminal() {
			t.Errorf("%s must not be terminal", st)
		}
	}
	// A site occupies a committable state only if all participants voted
	// yes: exactly PC and C.
	if !StatePC.Committable() || !StateCommitted.Committable() {
		t.Error("PC and C must be committable")
	}
	for _, st := range []State{StateInitial, StateWait, StatePA, StateAborted} {
		if st.Committable() {
			t.Errorf("%s must not be committable", st)
		}
	}
	for st := StateInitial; st <= StateAborted; st++ {
		if !st.Valid() {
			t.Errorf("%s should be valid", st)
		}
	}
	if State(6).Valid() {
		t.Error("State(6) should be invalid")
	}
	if !VoteYes.Valid() || !VoteNo.Valid() || Vote(2).Valid() {
		t.Error("exactly the two defined votes should be valid")
	}
}

func TestDecisionAndOutcome(t *testing.T) {
	if OutcomeCommitted.StateEquivalent() != StateCommitted ||
		OutcomeAborted.StateEquivalent() != StateAborted ||
		OutcomeBlocked.StateEquivalent() != StateInitial {
		t.Error("StateEquivalent mapping wrong")
	}
	want := map[State]Outcome{
		StateInitial: OutcomeUnknown, StateWait: OutcomeBlocked, StatePC: OutcomeBlocked,
		StatePA: OutcomeBlocked, StateCommitted: OutcomeCommitted, StateAborted: OutcomeAborted,
	}
	for s, o := range want {
		if got := s.Outcome(); got != o {
			t.Errorf("%v.Outcome() = %v, want %v", s, got, o)
		}
	}
}

func TestStringers(t *testing.T) {
	if SiteID(3).String() != "site3" {
		t.Errorf("SiteID string = %q", SiteID(3).String())
	}
	if TxnID(7).String() != "TR7" {
		t.Errorf("TxnID string = %q", TxnID(7).String())
	}
	if VoteYes.String() != "yes" || VoteNo.String() != "no" {
		t.Error("vote strings wrong")
	}
	if DecisionCommit.String() != "commit" || DecisionAbort.String() != "abort" || DecisionNone.String() != "none" {
		t.Error("decision strings wrong")
	}
	if OutcomeBlocked.String() != "blocked" || OutcomeUnknown.String() != "unknown" {
		t.Error("outcome strings wrong")
	}
}

func TestWritesetItems(t *testing.T) {
	ws := Writeset{
		{Item: "x", Value: 1},
		{Item: "y", Value: 2},
		{Item: "x", Value: 3}, // rewrite of x
	}
	items := ws.Items()
	if len(items) != 2 || items[0] != "x" || items[1] != "y" {
		t.Errorf("Items() = %v, want [x y] (dedup, order-preserving)", items)
	}
	if !ws.Contains("x") || !ws.Contains("y") || ws.Contains("z") {
		t.Error("Contains wrong")
	}
	v, ok := ws.ValueOf("x")
	if !ok || v != 3 {
		t.Errorf("ValueOf(x) = %d,%v, want 3 (last write wins)", v, ok)
	}
	if _, ok := ws.ValueOf("z"); ok {
		t.Error("ValueOf(z) should report absent")
	}
}

func TestWritesetCloneIndependence(t *testing.T) {
	ws := Writeset{{Item: "x", Value: 1}}
	cl := ws.Clone()
	cl[0].Value = 99
	if ws[0].Value != 1 {
		t.Error("Clone must not share backing storage")
	}
}

// refItems is Items as first written: a map of seen items.
func refItems(w Writeset) []ItemID {
	seen := make(map[ItemID]bool, len(w))
	items := make([]ItemID, 0, len(w))
	for _, u := range w {
		if !seen[u.Item] {
			seen[u.Item] = true
			items = append(items, u.Item)
		}
	}
	return items
}

// TestItemsMatchesMapReference pins Items to the map-based reference,
// nil-ness included: empty and nil writesets, duplicates, and random
// writesets of up to 40 updates.
func TestItemsMatchesMapReference(t *testing.T) {
	cases := []Writeset{
		nil,
		{},
		{{Item: "x"}},
		{{Item: "x", Value: 1}, {Item: "x", Value: 2}},
		{{Item: "y"}, {Item: "x"}, {Item: "y"}, {Item: "z"}, {Item: "x"}},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		ws := make(Writeset, rng.Intn(41))
		for j := range ws {
			ws[j] = Update{Item: ItemID(rune('a' + rng.Intn(1+rng.Intn(30)))), Value: int64(j)}
		}
		cases = append(cases, ws)
	}
	for _, ws := range cases {
		got, want := ws.Items(), refItems(ws)
		if !reflect.DeepEqual(got, want) || got == nil {
			t.Fatalf("Items(%v) = %#v, want %#v", ws, got, want)
		}
	}
}

func TestWritesetItemsProperty(t *testing.T) {
	// Property: Items() has no duplicates and covers exactly the item IDs
	// present in the writeset.
	f := func(names []uint8, values []int64) bool {
		var ws Writeset
		for i, n := range names {
			v := int64(i)
			if i < len(values) {
				v = values[i]
			}
			ws = append(ws, Update{Item: ItemID(rune('a' + n%16)), Value: v})
		}
		items := ws.Items()
		seen := make(map[ItemID]bool)
		for _, it := range items {
			if seen[it] {
				return false // duplicate
			}
			seen[it] = true
			if !ws.Contains(it) {
				return false
			}
		}
		for _, u := range ws {
			if !seen[u.Item] {
				return false // missing
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSiteTable: a SiteTable answers as a map would for IDs in its slice,
// past its end, negative and beyond the dense range.
func TestSiteTable(t *testing.T) {
	var tbl SiteTable[int]
	ref := map[SiteID]int{}
	ids := []SiteID{0, 1, 7, 4095, 4096, 1 << 30, -1, -1 << 31}
	for i, id := range ids {
		tbl.Set(id, i+10)
		ref[id] = i + 10
		for _, q := range append(ids, 2, 100, 5000) {
			if got := tbl.Get(q); got != ref[q] {
				t.Fatalf("after Set(%d): Get(%d) = %d, want %d", id, q, got, ref[q])
			}
		}
	}
	if n := len(tbl.dense); n != 4096 {
		t.Errorf("dense slice holds %d slots, want 4096 (IDs 0..4095)", n)
	}
}
