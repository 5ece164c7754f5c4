package voting

import (
	"testing"

	"qcommit/internal/types"
)

func newAdaptive(t *testing.T) *Adaptive {
	t.Helper()
	return NewAdaptive(MustAssignment(Uniform("x", 2, 3, 1, 2, 3, 4)))
}

func TestAdaptiveStartsOptimistic(t *testing.T) {
	a := newAdaptive(t)
	if a.ModeOf("x") != Optimistic || len(a.MissingAt("x")) != 0 {
		t.Fatal("item should start optimistic, with no missing writes")
	}
}

func TestAdaptiveDegradesOnMissedWrite(t *testing.T) {
	a := newAdaptive(t)
	// A write reaches only sites 1-3 (site4's copy missed it): the item
	// degrades.
	a.DegradeExcept("x", []types.SiteID{1, 2, 3})
	if a.ModeOf("x") != Pessimistic {
		t.Fatal("item should be pessimistic after a missing write")
	}
	if got := a.MissingAt("x"); len(got) != 1 || got[0] != 4 {
		t.Fatalf("MissingAt = %v, want [site4]", got)
	}
}

func TestAdaptiveRecoversToOptimistic(t *testing.T) {
	a := newAdaptive(t)
	a.DegradeExcept("x", []types.SiteID{1, 2, 3})
	// Another write in pessimistic mode misses site4 again: still one stale
	// site.
	a.DegradeExcept("x", []types.SiteID{1, 2, 3})
	// Site4's copy catches up: back to optimistic.
	a.ResolveMissing("x", 4)
	if a.ModeOf("x") != Optimistic {
		t.Fatal("item should return to optimistic after resolution")
	}
}

func TestAdaptiveAccumulatesMissingSites(t *testing.T) {
	a := newAdaptive(t)
	a.DegradeExcept("x", []types.SiteID{1, 2, 3}) // misses 4
	a.DegradeExcept("x", []types.SiteID{2, 3, 4}) // misses 1; 4 is still stale
	// Site 4 applied the second write but still misses the first; both 1
	// and 4 now carry missing writes.
	got := a.MissingAt("x")
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("MissingAt = %v, want [site1 site4]", got)
	}
	a.ResolveMissing("x", 1)
	if a.ModeOf("x") != Pessimistic {
		t.Error("one unresolved site must keep the item pessimistic")
	}
	a.ResolveMissing("x", 4)
	if a.ModeOf("x") != Optimistic {
		t.Error("all resolved: item should be optimistic")
	}
}

func TestAdaptiveModeString(t *testing.T) {
	if Optimistic.String() != "optimistic" || Pessimistic.String() != "pessimistic" {
		t.Error("mode strings wrong")
	}
}

func TestAdaptiveDegradeExceptAndTransitions(t *testing.T) {
	a := newAdaptive(t)
	if d, r := a.Transitions(); d != 0 || r != 0 {
		t.Fatalf("fresh adaptive has transitions %d/%d", d, r)
	}
	// Reaching every copy leaves the item optimistic.
	a.DegradeExcept("x", []types.SiteID{1, 2, 3, 4})
	if a.ModeOf("x") != Optimistic {
		t.Error("full-reach write must not demote")
	}
	// Missing one copy demotes — even below the pessimistic quorum, since
	// DegradeExcept is the post-commit bookkeeping hook, not a legality gate.
	a.DegradeExcept("x", []types.SiteID{1})
	if a.ModeOf("x") != Pessimistic {
		t.Fatal("missed copies must demote")
	}
	if !a.IsMissing("x", 2) || !a.IsMissing("x", 3) || !a.IsMissing("x", 4) {
		t.Error("sites 2-4 should carry missing writes")
	}
	if a.IsMissing("x", 1) {
		t.Error("reached site 1 marked missing")
	}
	// A second degradation while already pessimistic is not a new demotion.
	a.DegradeExcept("x", []types.SiteID{1, 2})
	if d, r := a.Transitions(); d != 1 || r != 0 {
		t.Errorf("transitions = %d/%d, want 1/0", d, r)
	}
	a.ResolveMissing("x", 2, 3)
	if d, r := a.Transitions(); d != 1 || r != 0 {
		t.Errorf("partial resolve counted as restoration: %d/%d", d, r)
	}
	a.ResolveMissing("x", 4)
	if d, r := a.Transitions(); d != 1 || r != 1 {
		t.Errorf("transitions = %d/%d, want 1/1", d, r)
	}
	if a.ModeOf("x") != Optimistic {
		t.Error("all resolved: item should be optimistic")
	}
	// Resolving an already-clean item is not a restoration.
	a.ResolveMissing("x", 1)
	if _, r := a.Transitions(); r != 1 {
		t.Error("no-op resolve counted as restoration")
	}
	// Unknown items are ignored.
	a.DegradeExcept("ghost", nil)
	if d, _ := a.Transitions(); d != 1 {
		t.Error("unknown-item degrade counted")
	}
}

func TestStrategyStringAndParse(t *testing.T) {
	if StrategyQuorum.String() != "quorum" || StrategyMissingWrites.String() != "missing-writes" ||
		StrategyDynamic.String() != "dynamic" || StrategyInvalid.String() != "invalid" {
		t.Error("strategy strings wrong")
	}
	if Strategy(99).String() == "" {
		t.Error("out-of-range strategy has empty string")
	}
	cases := map[string]Strategy{
		"quorum": StrategyQuorum, "Quorum": StrategyQuorum, "": StrategyQuorum,
		"missing-writes": StrategyMissingWrites, "missingwrites": StrategyMissingWrites,
		"MW": StrategyMissingWrites, " mw ": StrategyMissingWrites,
		"dynamic": StrategyDynamic, "dynamic-voting": StrategyDynamic,
		"DynamicVoting": StrategyDynamic, " dv ": StrategyDynamic,
	}
	for in, want := range cases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// The error path must NOT return the zero value (StrategyQuorum): a
	// caller that drops the error would otherwise silently run under the
	// quorum fallback.
	got, err := ParseStrategy("bogus")
	if err == nil {
		t.Error("bogus strategy accepted")
	}
	if got != StrategyInvalid {
		t.Errorf("ParseStrategy error path returned %v, want StrategyInvalid", got)
	}
}
