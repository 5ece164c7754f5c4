package churn

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qcommit/internal/sim"
	"qcommit/internal/voting"
)

// testParams is a small, fast study configuration exercising both site and
// partition churn.
func testParams() Params {
	p := DefaultParams()
	p.Horizon = 2 * sim.Second
	p.MTTF = 1500 * sim.Millisecond
	p.MTTR = 300 * sim.Millisecond
	p.PartitionMTBF = 1200 * sim.Millisecond
	p.PartitionMTTR = 400 * sim.Millisecond
	return p
}

// TestStudyDeterministic: a study is a pure function of (params, runs,
// seed, specs).
func TestStudyDeterministic(t *testing.T) {
	a, err := Study(testParams(), 3, 7, StandardBuilders())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Study(testParams(), 3, 7, StandardBuilders())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("study not deterministic:\nfirst  %+v\nsecond %+v", a, b)
	}
	if a[0].Counts.Submitted == 0 {
		t.Fatal("study submitted no transactions")
	}
}

// TestStudyParallelMatchesSerial is the tentpole determinism contract: for
// every tested worker count, under all three access strategies, the
// parallel study returns Results bit-for-bit identical to the serial
// oracle.
func TestStudyParallelMatchesSerial(t *testing.T) {
	for _, strategy := range []voting.Strategy{voting.StrategyQuorum, voting.StrategyMissingWrites, voting.StrategyDynamic} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			params := testParams()
			params.Strategy = strategy
			specs := StandardBuilders()
			const runs = 8
			want, err := Study(params, runs, 1, specs)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
				got, err := StudyParallel(params, runs, 1, specs, Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: parallel diverged from serial\ngot  %+v\nwant %+v", workers, got, want)
				}
			}
		})
	}
}

// TestMissingWritesStudySafetyAndMetrics: the adaptive strategy must stay
// violation-free under combined site and partition churn, and its
// availability/mode metrics must be internally consistent.
func TestMissingWritesStudySafetyAndMetrics(t *testing.T) {
	params := testParams()
	params.Strategy = voting.StrategyMissingWrites
	res, err := StudyParallel(params, 6, 17, StandardBuilders(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Label == "3PC" {
			continue // inconsistent under partitioning by design (Example 2)
		}
		if r.Violations != 0 {
			t.Errorf("%s: %d safety violations under missing-writes churn", r.Label, r.Violations)
		}
	}
	totalDemotions := 0
	for _, r := range res {
		c := r.Counts
		if c.AccessChecks == 0 {
			t.Fatalf("%s: no access probes sampled", r.Label)
		}
		if c.ReadAvailable > c.AccessChecks || c.WriteAvailable > c.AccessChecks {
			t.Errorf("%s: availability counts exceed checks: %+v", r.Label, c)
		}
		// Note: ReadAvailable >= WriteAvailable is NOT an invariant here —
		// pessimistic reads exclude stale copies that writes still count.
		if c.ModeDemotions < c.ModeRestorations {
			t.Errorf("%s: more restorations (%d) than demotions (%d)", r.Label, c.ModeRestorations, c.ModeDemotions)
		}
		totalDemotions += c.ModeDemotions
	}
	// How often a commit misses a copy is protocol-dependent (2PC mostly
	// blocks instead), but churn this heavy must demote somewhere.
	if totalDemotions == 0 {
		t.Error("no protocol column recorded a single mode demotion")
	}
}

// TestDynamicStudySafetyAndMetrics: the dynamic-voting strategy must stay
// violation-free under combined site and partition churn, reassignment
// churn must actually happen, and the static strategies must report zero
// vote transitions.
func TestDynamicStudySafetyAndMetrics(t *testing.T) {
	params := testParams()
	params.Strategy = voting.StrategyDynamic
	res, err := StudyParallel(params, 6, 17, StandardBuilders(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	totalReassigns := 0
	for _, r := range res {
		if r.Label != "3PC" && r.Violations != 0 {
			t.Errorf("%s: %d safety violations under dynamic-voting churn", r.Label, r.Violations)
		}
		c := r.Counts
		if c.AccessChecks == 0 {
			t.Fatalf("%s: no access probes sampled", r.Label)
		}
		if c.ReadAvailable > c.AccessChecks || c.WriteAvailable > c.AccessChecks {
			t.Errorf("%s: availability counts exceed checks: %+v", r.Label, c)
		}
		if c.VoteRestorations > c.VoteReassignments {
			t.Errorf("%s: more restorations (%d) than reassignments (%d)", r.Label, c.VoteRestorations, c.VoteReassignments)
		}
		if c.ModeDemotions != 0 || c.ModeRestorations != 0 {
			t.Errorf("%s: dynamic strategy reported missing-writes mode churn %d/%d", r.Label, c.ModeDemotions, c.ModeRestorations)
		}
		totalReassigns += c.VoteReassignments
	}
	if totalReassigns == 0 {
		t.Error("no protocol column recorded a single vote reassignment")
	}
}

// TestDynamicSecondFailureHeadline pins the headline scenario at
// study scale: on identical timelines heavy enough for overlapping
// failures, the dynamic strategy's shrunken bases keep items
// write-available at arrivals where static quorums have lost too many of
// the original votes — so its write-availability count is strictly higher,
// while the probe denominators stay identical (same worlds).
func TestDynamicSecondFailureHeadline(t *testing.T) {
	params := DefaultParams()
	params.Horizon = 3 * sim.Second
	params.MTTR = 800 * sim.Millisecond // slow repairs: failures overlap
	specs := StandardBuilders()[3:4]    // QC1 column suffices
	quorum, err := Study(params, 6, 5, specs)
	if err != nil {
		t.Fatal(err)
	}
	params.Strategy = voting.StrategyDynamic
	dynamic, err := Study(params, 6, 5, specs)
	if err != nil {
		t.Fatal(err)
	}
	qc, dc := quorum[0].Counts, dynamic[0].Counts
	if qc.AccessChecks != dc.AccessChecks {
		t.Fatalf("probe counts diverged: %d vs %d", qc.AccessChecks, dc.AccessChecks)
	}
	if dc.WriteAvailable <= qc.WriteAvailable {
		t.Errorf("dynamic write availability %d/%d not above quorum %d/%d under overlapping failures",
			dc.WriteAvailable, dc.AccessChecks, qc.WriteAvailable, qc.AccessChecks)
	}
	if qc.VoteReassignments != 0 || qc.VoteRestorations != 0 {
		t.Errorf("quorum strategy reported vote transitions: %d/%d", qc.VoteReassignments, qc.VoteRestorations)
	}
	if dc.VoteReassignments == 0 {
		t.Error("dynamic column never reassigned under overlapping failures")
	}
	if quorum[0].Violations != 0 || dynamic[0].Violations != 0 {
		t.Errorf("violations: quorum %d, dynamic %d", quorum[0].Violations, dynamic[0].Violations)
	}
}

// TestStrategiesDivergeOnReadAvailability: with rare failures the adaptive
// strategy's optimistic read-one must report read availability at least as
// high as the quorum strategy's on the identical timeline; the quorum
// strategy must report zero mode transitions.
func TestStrategiesDivergeOnReadAvailability(t *testing.T) {
	params := DefaultParams()
	params.Horizon = 2 * sim.Second
	params.MTTF = 8 * sim.Second // rare failures: adaptive voting's home turf
	params.MTTR = 200 * sim.Millisecond
	specs := StandardBuilders()[3:4] // QC1 column suffices
	quorum, err := Study(params, 4, 3, specs)
	if err != nil {
		t.Fatal(err)
	}
	params.Strategy = voting.StrategyMissingWrites
	adaptive, err := Study(params, 4, 3, specs)
	if err != nil {
		t.Fatal(err)
	}
	qc, ac := quorum[0].Counts, adaptive[0].Counts
	if qc.AccessChecks != ac.AccessChecks {
		t.Fatalf("probe counts diverged: %d vs %d", qc.AccessChecks, ac.AccessChecks)
	}
	if ac.ReadAvailable < qc.ReadAvailable {
		t.Errorf("adaptive read availability %d below quorum %d with rare failures",
			ac.ReadAvailable, qc.ReadAvailable)
	}
	if qc.ModeDemotions != 0 || qc.ModeRestorations != 0 {
		t.Errorf("quorum strategy reported mode transitions: %d/%d", qc.ModeDemotions, qc.ModeRestorations)
	}
}

// TestStudyParallelRace exercises the pool under the race detector with more
// workers than runs and a progress callback mutating shared state.
func TestStudyParallelRace(t *testing.T) {
	params := testParams()
	params.Horizon = 1 * sim.Second
	var mu sync.Mutex
	calls, last := 0, 0
	const runs = 5
	res, err := StudyParallel(params, runs, 9, StandardBuilders(), Options{
		Workers: 8,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if total != runs {
				t.Errorf("progress total = %d, want %d", total, runs)
			}
			if done < last || done > total {
				t.Errorf("progress done = %d after %d", done, last)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Error("progress callback never invoked")
	}
	if last != runs {
		t.Errorf("final progress %d, want %d", last, runs)
	}
	for _, r := range res {
		if r.Runs != runs {
			t.Errorf("%s: runs = %d, want %d", r.Label, r.Runs, runs)
		}
	}
}

func TestStudyEdgeCases(t *testing.T) {
	specs := StandardBuilders()
	// Zero runs: empty but labeled results, no error.
	res, err := StudyParallel(testParams(), 0, 1, specs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(specs) || res[0].Runs != 0 || res[0].Label != "2PC" {
		t.Errorf("zero-run results malformed: %+v", res)
	}
	// Invalid params surface the validation error on both paths.
	bad := testParams()
	bad.MTTR = 0
	if _, err := Study(bad, 2, 1, specs); err == nil {
		t.Error("MTTF without MTTR accepted by serial path")
	}
	if _, err := StudyParallel(bad, 2, 1, specs, Options{}); err == nil {
		t.Error("MTTF without MTTR accepted by parallel path")
	}
	// Default worker count (0 → GOMAXPROCS) still matches serial.
	want, err := Study(testParams(), 3, 3, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := StudyParallel(testParams(), 3, 3, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("default worker count diverged from serial")
	}
}

// TestStudyRefusesNegativeRuns: a negative run count is an error on both
// paths, returned before anything runs (the parallel path used to panic
// sizing its chunk table, the serial one to report an empty study).
func TestStudyRefusesNegativeRuns(t *testing.T) {
	specs := StandardBuilders()
	for _, runs := range []int{-1, -3} {
		if res, err := Study(testParams(), runs, 1, specs); err == nil || res != nil {
			t.Errorf("Study with %d runs: %v, %v; want an error", runs, res, err)
		}
		if res, err := StudyParallel(testParams(), runs, 1, specs, Options{Workers: 2}); err == nil || res != nil {
			t.Errorf("StudyParallel with %d runs: %v, %v; want an error", runs, res, err)
		}
	}
}

// TestSiteChurnSafety: under pure site failure/repair churn (no partitions)
// every protocol must stay safe — zero atomicity violations and zero store
// inconsistencies — while still terminating the bulk of the stream.
func TestSiteChurnSafety(t *testing.T) {
	params := DefaultParams()
	params.Horizon = 3 * sim.Second
	res, err := StudyParallel(params, 6, 11, StandardBuilders(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Violations != 0 {
			t.Errorf("%s: %d safety violations under site churn", r.Label, r.Violations)
		}
		if r.Counts.Submitted == 0 {
			t.Fatalf("%s: no transactions submitted", r.Label)
		}
		if got := r.Counts.TerminatedFraction(); got < 0.5 {
			t.Errorf("%s: terminated fraction %.2f, want ≥ 0.5", r.Label, got)
		}
		if len(r.Latencies) != r.Counts.Committed+r.Counts.Aborted {
			t.Errorf("%s: %d latencies for %d terminations", r.Label, len(r.Latencies), r.Counts.Committed+r.Counts.Aborted)
		}
	}
}

// TestQuorumProtocolSafetyUnderPartitionChurn: the partition-safe protocols
// (everything but the 3PC baseline) must stay violation-free even when
// partitions form and heal while transactions are in flight.
func TestQuorumProtocolSafetyUnderPartitionChurn(t *testing.T) {
	params := testParams()
	res, err := StudyParallel(params, 8, 23, StandardBuilders(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Label == "3PC" {
			continue // inconsistent under partitioning by design (Example 2)
		}
		if r.Violations != 0 {
			t.Errorf("%s: %d safety violations under partition churn", r.Label, r.Violations)
		}
	}
}

// TestNoChurnBaseline: with failures disabled the stream runs clean — no
// blocking, no rejections, and (conflict aborts aside) a high commit rate.
func TestNoChurnBaseline(t *testing.T) {
	params := DefaultParams()
	params.MTTF, params.MTTR = 0, 0
	params.Horizon = 2 * sim.Second
	res, err := Study(params, 3, 5, StandardBuilders())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		c := r.Counts
		if c.Blocked != 0 || c.Unresolved != 0 || c.Rejected != 0 {
			t.Errorf("%s: blocked=%d unresolved=%d rejected=%d without churn", r.Label, c.Blocked, c.Unresolved, c.Rejected)
		}
		if r.Violations != 0 {
			t.Errorf("%s: %d violations without churn", r.Label, r.Violations)
		}
		if got := c.CommittedFraction(); got < 0.6 {
			t.Errorf("%s: committed fraction %.2f without churn, want ≥ 0.6", r.Label, got)
		}
		if got := c.BlockedTimeShare(); got > 0.1 {
			t.Errorf("%s: blocked-time share %.3f without churn", r.Label, got)
		}
		if c.SiteDownNS != 0 || c.PartitionedNS != 0 {
			t.Errorf("%s: down/partitioned time nonzero without churn", r.Label)
		}
	}
}

func TestGenerateScriptDeterministicAndSane(t *testing.T) {
	params := testParams()
	a, err := generateScript(params, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateScript(params, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.events, b.events) || !reflect.DeepEqual(a.arrivals, b.arrivals) {
		t.Error("script generation not deterministic")
	}
	horizon := sim.Time(params.Horizon)
	for i, ev := range a.events {
		if ev.At < 0 || ev.At >= horizon {
			t.Errorf("event %d at %v outside [0, %v)", i, ev.At, horizon)
		}
		if i > 0 && ev.At < a.events[i-1].At {
			t.Errorf("events not time-sorted at %d", i)
		}
		switch ev.Kind {
		case EventCrash, EventRestart:
			if ev.Site < 1 || int(ev.Site) > params.NumSites {
				t.Errorf("event %d: bad site %v", i, ev.Site)
			}
		case EventPartition:
			if len(ev.Groups) < 2 {
				t.Errorf("event %d: partition with %d groups", i, len(ev.Groups))
			}
		}
	}
	for _, ri := range a.repairs {
		if k := a.events[ri].Kind; k != EventRestart && k != EventHeal {
			t.Errorf("repair index %d points at %v", ri, k)
		}
	}
	// Per-site crash/restart strictly alternate.
	lastKind := make(map[rune]EventKind)
	for _, ev := range a.events {
		if ev.Kind != EventCrash && ev.Kind != EventRestart {
			continue
		}
		key := rune(ev.Site)
		if prev, ok := lastKind[key]; ok && prev == ev.Kind {
			t.Errorf("site %v: consecutive %v events", ev.Site, ev.Kind)
		}
		lastKind[key] = ev.Kind
	}
	if len(a.arrivals) == 0 {
		t.Fatal("no arrivals generated")
	}
	for i, ar := range a.arrivals {
		if ar.At < 0 || ar.At >= horizon {
			t.Errorf("arrival %d at %v outside horizon", i, ar.At)
		}
		if i > 0 && ar.At < a.arrivals[i-1].At {
			t.Errorf("arrivals not time-sorted at %d", i)
		}
		if len(ar.Writeset) != params.WritesPerTxn {
			t.Errorf("arrival %d writes %d items, want %d", i, len(ar.Writeset), params.WritesPerTxn)
		}
		found := false
		for _, p := range ar.Participants {
			if p == ar.Coord {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("arrival %d: coordinator %v not a participant", i, ar.Coord)
		}
	}
	if a.siteDownNS <= 0 {
		t.Error("no site down time with churn enabled")
	}
	if a.partitionedNS <= 0 {
		t.Error("no partitioned time with partition churn enabled")
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero sites", func(p *Params) { p.NumSites = 0 }},
		{"copies exceed sites", func(p *Params) { p.CopiesPerItem = p.NumSites + 1 }},
		{"writes exceed items", func(p *Params) { p.WritesPerTxn = p.NumItems + 1 }},
		{"hot fraction 1", func(p *Params) { p.HotFraction = 1 }},
		{"invalid strategy", func(p *Params) { p.Strategy = voting.StrategyInvalid }},
		{"zero interarrival", func(p *Params) { p.MeanInterarrival = 0 }},
		{"zero horizon", func(p *Params) { p.Horizon = 0 }},
		{"negative mttf", func(p *Params) { p.MTTF = -1 }},
		{"mttf without mttr", func(p *Params) { p.MTTR = 0 }},
		{"partition mtbf without mttr", func(p *Params) { p.PartitionMTBF = sim.Second; p.PartitionMTTR = 0 }},
		{"partition churn with one group", func(p *Params) {
			p.PartitionMTBF = sim.Second
			p.PartitionMTTR = sim.Second
			p.MaxGroups = 1
		}},
	}
	for _, tc := range cases {
		p := DefaultParams()
		tc.mutate(&p)
		if err := p.validate(); err == nil {
			t.Errorf("%s: invalid params accepted: %+v", tc.name, p)
		}
	}
	if err := DefaultParams().validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
	bad := DefaultParams()
	bad.Engine = Engine(99)
	if err := bad.validate(); err == nil {
		t.Error("invalid engine accepted")
	}
}

// TestPlacementErrors: impossible replica placements surface as the typed
// *PlacementError, carrying the shape that made them impossible, and the
// study entry points propagate it unwrapped through errors.As.
func TestPlacementErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
		reason string
	}{
		{"no sites", func(p *Params) { p.NumSites = 0 }, "at least 2 sites"},
		{"one site", func(p *Params) { p.NumSites = 1 }, "at least 2 sites"},
		{"no items", func(p *Params) { p.NumItems = 0 }, "at least 1 item"},
		{"no copies", func(p *Params) { p.CopiesPerItem = 0 }, "at least 1 copy"},
		{"no writes", func(p *Params) { p.WritesPerTxn = 0 }, "at least 1 write"},
		{"copies exceed sites", func(p *Params) { p.CopiesPerItem = p.NumSites + 3 }, "distinct copies"},
		{"writes exceed items", func(p *Params) { p.WritesPerTxn = p.NumItems + 2 }, "distinct written items"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mutate(&p)
			err := p.validate()
			var pe *PlacementError
			if !errors.As(err, &pe) {
				t.Fatalf("validate() = %v, want *PlacementError", err)
			}
			if pe.Sites != p.NumSites || pe.Items != p.NumItems || pe.Copies != p.CopiesPerItem || pe.Writes != p.WritesPerTxn {
				t.Errorf("error shape %+v does not match params", pe)
			}
			if !strings.Contains(pe.Error(), tc.reason) {
				t.Errorf("error %q missing reason %q", pe.Error(), tc.reason)
			}
			if _, err := Study(p, 1, 1, StandardBuilders()); !errors.As(err, &pe) {
				t.Errorf("Study returned %v, want *PlacementError", err)
			}
			if _, err := StudyParallel(p, 1, 1, StandardBuilders(), Options{}); !errors.As(err, &pe) {
				t.Errorf("StudyParallel returned %v, want *PlacementError", err)
			}
		})
	}
	// A tight-but-possible placement is accepted.
	p := DefaultParams()
	p.CopiesPerItem = p.NumSites
	p.WritesPerTxn = p.NumItems
	if err := p.validate(); err != nil {
		t.Errorf("tight placement rejected: %v", err)
	}
}

// TestEngineParse pins the engine selector's string round trip.
func TestEngineParse(t *testing.T) {
	for _, e := range []Engine{EngineReplay, EngineHybrid} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Error("ParseEngine accepted garbage")
	}
	if Engine(42).String() == "" {
		t.Error("unknown engine should still render")
	}
}

func TestLatencyPercentile(t *testing.T) {
	r := Result{Latencies: []sim.Duration{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}}
	cases := []struct {
		p    float64
		want sim.Duration
	}{
		{50, 50}, {95, 100}, {99, 100}, {100, 100}, {10, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := r.LatencyPercentile(c.p); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (Result{}).LatencyPercentile(50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestCountsFractionsAndAdd(t *testing.T) {
	a := Counts{Arrivals: 10, Submitted: 8, Committed: 4, Aborted: 2, Blocked: 1, Unresolved: 1, Rejected: 2,
		PendingNS: 25, PostSubmitNS: 100, SiteDownNS: 7, PartitionedNS: 3}
	if got := a.CommittedFraction(); got != 0.5 {
		t.Errorf("committed fraction = %v", got)
	}
	if got := a.TerminatedFraction(); got != 0.75 {
		t.Errorf("terminated fraction = %v", got)
	}
	if got := a.BlockedFraction(); got != 0.125 {
		t.Errorf("blocked fraction = %v", got)
	}
	if got := a.BlockedTimeShare(); got != 0.25 {
		t.Errorf("blocked-time share = %v", got)
	}
	b := a
	b.Add(a)
	if b.Submitted != 16 || b.PendingNS != 50 || b.PartitionedNS != 6 {
		t.Errorf("Add produced %+v", b)
	}
	var zero Counts
	if zero.CommittedFraction() != 0 || zero.BlockedTimeShare() != 0 {
		t.Error("zero counts should yield zero fractions")
	}
}

func TestWilsonCIsBracketPointEstimates(t *testing.T) {
	res, err := Study(testParams(), 2, 1, StandardBuilders()[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		lo, hi := r.CommittedCI()
		p := r.Counts.CommittedFraction()
		if p < lo || p > hi {
			t.Errorf("%s: committed %.3f outside CI [%.3f, %.3f]", r.Label, p, lo, hi)
		}
		lo, hi = r.TerminatedCI()
		p = r.Counts.TerminatedFraction()
		if p < lo || p > hi {
			t.Errorf("%s: terminated %.3f outside CI [%.3f, %.3f]", r.Label, p, lo, hi)
		}
	}
}

func TestFormatTables(t *testing.T) {
	res, err := Study(testParams(), 2, 2, StandardBuilders())
	if err != nil {
		t.Fatal(err)
	}
	table := FormatTable(res)
	for _, want := range []string{"protocol", "2PC", "3PC", "SkeenQ", "QC1", "QC2", "p95(ms)", "blkshare"} {
		if !strings.Contains(table, want) {
			t.Errorf("FormatTable missing %q:\n%s", want, table)
		}
	}
	ci := FormatTableCI(res)
	for _, want := range []string{"committed [95% CI]", "terminated [95% CI]", "violations"} {
		if !strings.Contains(ci, want) {
			t.Errorf("FormatTableCI missing %q:\n%s", want, ci)
		}
	}
}
