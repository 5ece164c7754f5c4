package avail

import (
	"fmt"
	"math/rand"
	"strings"

	"qcommit/internal/core"
	"qcommit/internal/engine"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// Scenario is one randomly drawn "interrupted commit" configuration: a
// replica placement, a transaction writeset, a mid-protocol cut (which
// participants had reached PC when the coordinator crashed), and a network
// partition. The same scenario is replayed under every protocol under test,
// so the comparison isolates the termination protocols' quorum rules.
type Scenario struct {
	Seed       int64
	Assignment *voting.Assignment
	Writeset   types.Writeset
	// Items caches Writeset.Items() — the distinct written item IDs.
	Items        []types.ItemID
	Coord        types.SiteID
	Participants []types.SiteID
	States       map[types.SiteID]types.State
	Partition    [][]types.SiteID
}

// ScenarioParams controls random scenario generation.
type ScenarioParams struct {
	// NumSites is the total number of database sites.
	NumSites int
	// NumItems is the number of replicated data items in the database.
	NumItems int
	// CopiesPerItem is the replication degree of each item.
	CopiesPerItem int
	// ItemsPerTxn is how many items the analyzed transaction writes.
	ItemsPerTxn int
	// MaxGroups bounds the number of partition groups (≥2).
	MaxGroups int
	// VotePhasePct is the percentage (0–100) of scenarios where the
	// coordinator crashed during the *vote* phase, leaving some participants
	// still in the initial state q (every termination protocol can then
	// abort). The rest crash during PREPARE-TO-COMMIT distribution.
	VotePhasePct int
}

// DefaultScenarioParams mirrors the scale of the paper's examples: 8 sites,
// 4-way replication, transactions writing 2 items, up to 3-way partitions.
func DefaultScenarioParams() ScenarioParams {
	return ScenarioParams{NumSites: 8, NumItems: 4, CopiesPerItem: 4, ItemsPerTxn: 2, MaxGroups: 3, VotePhasePct: 25}
}

func (p ScenarioParams) validate() error {
	if p.NumSites < 2 || p.NumItems < 1 || p.CopiesPerItem < 1 || p.ItemsPerTxn < 1 || p.MaxGroups < 2 {
		return fmt.Errorf("avail: invalid scenario params %+v", p)
	}
	if p.VotePhasePct < 0 || p.VotePhasePct > 100 {
		return fmt.Errorf("avail: VotePhasePct %d outside 0-100", p.VotePhasePct)
	}
	if p.CopiesPerItem > p.NumSites {
		return fmt.Errorf("avail: CopiesPerItem %d exceeds NumSites %d", p.CopiesPerItem, p.NumSites)
	}
	if p.ItemsPerTxn > p.NumItems {
		return fmt.Errorf("avail: ItemsPerTxn %d exceeds NumItems %d", p.ItemsPerTxn, p.NumItems)
	}
	return nil
}

// ScenarioGen draws scenarios for one fixed ScenarioParams. It precomputes
// the item-name table and reuses permutation, replica and state scratch
// buffers across draws, so the per-trial allocation cost is dominated by the
// (trial-lived) vote assignment rather than generator bookkeeping.
//
// A generator is not safe for concurrent use, and each generated Scenario
// aliases the generator's buffers: it is valid only until the next Generate
// call. Use the standalone GenerateScenario for an independent, long-lived
// scenario.
type ScenarioGen struct {
	params    ScenarioParams
	src       rand.Source
	rng       *rand.Rand
	sites     []types.SiteID
	itemNames []types.ItemID
	r, w      int

	permBuf  []int
	copies   []voting.Copy
	configs  []voting.ItemConfig
	writeset types.Writeset
	states   map[types.SiteID]types.State
	groups   [][]types.SiteID
	groupBuf []types.SiteID
}

// NewScenarioGen validates params and builds a generator for them.
func NewScenarioGen(params ScenarioParams) (*ScenarioGen, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	g := &ScenarioGen{params: params, src: rand.NewSource(0)}
	g.rng = rand.New(g.src)
	g.sites = make([]types.SiteID, params.NumSites)
	for i := range g.sites {
		g.sites[i] = types.SiteID(i + 1)
	}
	g.itemNames = make([]types.ItemID, params.NumItems)
	for i := range g.itemNames {
		g.itemNames[i] = types.ItemID(fmt.Sprintf("item%d", i+1))
	}
	g.r, g.w = voting.MajorityQuorums(params.CopiesPerItem)
	permLen := params.NumSites
	if params.NumItems > permLen {
		permLen = params.NumItems
	}
	g.permBuf = make([]int, permLen)
	g.copies = make([]voting.Copy, params.NumItems*params.CopiesPerItem)
	g.configs = make([]voting.ItemConfig, params.NumItems)
	g.writeset = make(types.Writeset, 0, params.ItemsPerTxn)
	g.states = make(map[types.SiteID]types.State, params.NumSites)
	g.groups = make([][]types.SiteID, params.MaxGroups)
	g.groupBuf = make([]types.SiteID, params.NumSites)
	return g, nil
}

// perm fills the scratch buffer with a random permutation of 0..n-1 (see
// PermInto), so generation stays bit-identical to the historical per-trial
// allocation.
func (g *ScenarioGen) perm(n int) []int {
	p := g.permBuf[:n]
	PermInto(g.rng, p)
	return p
}

// PermInto fills m with a random permutation of [0, len(m)), making exactly
// the draws rng.Perm(len(m)) makes, in the same order, into the caller's
// buffer.
func PermInto(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// Generate draws the scenario for the given seed. Generation is
// deterministic in (params, seed). The returned scenario aliases the
// generator's scratch buffers and is valid until the next Generate call.
func (g *ScenarioGen) Generate(seed int64) (Scenario, error) {
	params := g.params
	g.src.Seed(seed)
	rng := g.rng
	sc := Scenario{Seed: seed}

	// Random replica placement with majority quorums.
	for i := 0; i < params.NumItems; i++ {
		perm := g.perm(params.NumSites)
		copies := g.copies[i*params.CopiesPerItem : (i+1)*params.CopiesPerItem]
		for j := range copies {
			copies[j] = voting.Copy{Site: g.sites[perm[j]], Votes: 1}
		}
		g.configs[i] = voting.ItemConfig{Item: g.itemNames[i], Copies: copies, R: g.r, W: g.w}
	}
	asgn, err := voting.NewAssignment(g.configs...)
	if err != nil {
		return Scenario{}, err
	}
	sc.Assignment = asgn

	// Random writeset.
	itemPerm := g.perm(params.NumItems)
	g.writeset = g.writeset[:0]
	for j := 0; j < params.ItemsPerTxn; j++ {
		g.writeset = append(g.writeset, types.Update{Item: g.itemNames[itemPerm[j]], Value: rng.Int63n(1000)})
	}
	sc.Writeset = g.writeset
	sc.Items = sc.Writeset.Items()
	sc.Participants = asgn.Participants(sc.Items)
	sc.Coord = sc.Participants[rng.Intn(len(sc.Participants))]

	// Mid-protocol cut. With probability VotePhasePct% the coordinator
	// crashed during the vote phase (a random strict subset of participants
	// is still in q, the rest voted yes); otherwise it crashed partway
	// through distributing PREPARE-TO-COMMIT (a random prefix of a random
	// participant order is in PC, possibly none, possibly all).
	clear(g.states)
	sc.States = g.states
	for _, s := range sc.Participants {
		sc.States[s] = types.StateWait
	}
	cutPerm := g.perm(len(sc.Participants))
	if rng.Intn(100) < params.VotePhasePct {
		numQ := 1 + rng.Intn(len(sc.Participants))
		for j := 0; j < numQ; j++ {
			sc.States[sc.Participants[cutPerm[j]]] = types.StateInitial
		}
	} else {
		numPC := rng.Intn(len(sc.Participants) + 1)
		for j := 0; j < numPC; j++ {
			sc.States[sc.Participants[cutPerm[j]]] = types.StatePC
		}
	}

	// Random partition of all sites into 2..MaxGroups non-empty groups,
	// carved out of the group arena: round-robin assignment fixes each
	// group's size up front, so the per-group slices never reallocate.
	numGroups := 2 + rng.Intn(params.MaxGroups-1)
	if numGroups > params.NumSites {
		numGroups = params.NumSites
	}
	perm := g.perm(params.NumSites)
	groups := g.groups[:numGroups]
	offset := 0
	for gi := range groups {
		size := (params.NumSites - gi + numGroups - 1) / numGroups
		groups[gi] = g.groupBuf[offset : offset : offset+size]
		offset += size
	}
	for i, pi := range perm {
		gi := i % numGroups // guarantees non-empty groups
		groups[gi] = append(groups[gi], g.sites[pi])
	}
	sc.Partition = groups
	return sc, nil
}

// GenerateScenario draws one independent scenario with the given seed.
// Generation is deterministic in (params, seed). Callers drawing many
// scenarios should hold a ScenarioGen instead, which reuses scratch buffers
// across draws.
func GenerateScenario(params ScenarioParams, seed int64) (Scenario, error) {
	g, err := NewScenarioGen(params)
	if err != nil {
		return Scenario{}, err
	}
	return g.Generate(seed)
}

// Engine selects how a Monte Carlo trial is evaluated.
type Engine uint8

// Engines.
const (
	// EngineReplay replays every trial through the discrete-event simulator
	// (engine.New + termination automata). It is the oracle: it observes
	// violations from actual message ladders, at the cost of simulating
	// every WAL append, election and timeout.
	EngineReplay Engine = iota
	// EngineAnalytic computes each trial's Counts by pure quorum arithmetic
	// (package quorumcalc) — no simulation. Differential tests pin it
	// count-for-count to EngineReplay. The arithmetic reads the rule table
	// of the very spec Build returns, so it supports every core.Spec.
	EngineAnalytic
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	if e == EngineAnalytic {
		return "analytic"
	}
	return "replay"
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "replay":
		return EngineReplay, nil
	case "analytic":
		return EngineAnalytic, nil
	default:
		return 0, fmt.Errorf("avail: unknown engine %q (want \"replay\" or \"analytic\")", s)
	}
}

// SpecBuilder names a protocol column and builds its spec for a scenario.
// The standard columns return one fixed spec (Skeen's sizes its quorums per
// transaction through core.PerTransaction); a column whose spec depends on
// the scenario, such as a weighted vote assignment, builds it here.
type SpecBuilder struct {
	// Label names the column in result tables.
	Label string
	// Build returns the spec for the given scenario.
	Build func(sc Scenario) core.Spec
}

// Replay runs one scenario under one protocol through the discrete-event
// engine and returns the availability report plus any correctness violations
// (atomicity violations and store-level consistency issues).
func Replay(sc Scenario, spec core.Spec) (Report, []string) {
	cl := engine.New(engine.Config{
		Seed:       sc.Seed,
		Assignment: sc.Assignment,
		Spec:       spec,
	})
	txn := cl.SetupInterrupted(sc.Coord, sc.Writeset, sc.States)
	cl.Crash(sc.Coord)
	cl.Partition(sc.Partition...)
	cl.Run()
	violations := cl.Violations()
	violations = append(violations, cl.CheckStores()...)
	return Analyze(cl, txn), violations
}

// MCResult is the aggregate of one protocol column across all trials.
type MCResult struct {
	Label      string
	Trials     int
	Counts     Counts
	Violations int
}

// add accumulates other into r.
func (r *MCResult) add(other MCResult) {
	r.Trials += other.Trials
	r.Counts.Add(other.Counts)
	r.Violations += other.Violations
}

// trialRunner is the shared per-trial kernel of the serial and parallel
// Monte Carlo paths: it generates trial t (seeded seed+t) and evaluates it
// under every builder with the selected engine, adding the tallies into
// results. Because trials are independently seeded and Counts aggregation is
// pure integer addition, evaluating the same trial set in any arrangement
// produces identical results. A trialRunner owns scratch state (generator
// buffers, analytic tallies) and must not be shared between goroutines.
type trialRunner struct {
	gen      *ScenarioGen
	builders []SpecBuilder
	engine   Engine
	eval     *analyticEval // scratch for EngineAnalytic
	// frame is the trial's transaction compiled once, and rules every
	// builder's rule over it (EngineAnalytic).
	frame quorumcalc.Frame
	rules []quorumcalc.Quorums
}

func newTrialRunner(params ScenarioParams, builders []SpecBuilder, eng Engine) (*trialRunner, error) {
	gen, err := NewScenarioGen(params)
	if err != nil {
		return nil, err
	}
	r := &trialRunner{gen: gen, builders: builders, engine: eng}
	if eng == EngineAnalytic {
		r.eval = newAnalyticEval()
		r.rules = make([]quorumcalc.Quorums, len(builders))
	}
	return r, nil
}

// accumulate evaluates trial t into results.
func (r *trialRunner) accumulate(seed int64, t int, results []MCResult) error {
	sc, err := r.gen.Generate(seed + int64(t))
	if err != nil {
		return err
	}
	if r.engine == EngineAnalytic {
		r.frame.Init(sc.Assignment, sc.Writeset, sc.Participants)
		for i, b := range r.builders {
			r.rules[i] = b.Build(sc).Rule(sc.Participants).Over(&r.frame)
		}
		r.eval.run(sc, &r.frame, r.rules, results)
		return nil
	}
	for i, b := range r.builders {
		rep, violations := Replay(sc, b.Build(sc))
		results[i].add(MCResult{Trials: 1, Counts: rep.Tally(), Violations: len(violations)})
	}
	return nil
}

// MonteCarlo evaluates Trials random scenarios under every builder with the
// selected engine and aggregates availability counts. All builders see
// identical scenarios. This serial path is the determinism oracle for
// MonteCarloParallel; with EngineReplay it is also the correctness oracle
// for EngineAnalytic.
func MonteCarlo(params ScenarioParams, trials int, seed int64, builders []SpecBuilder, eng Engine) ([]MCResult, error) {
	if err := checkTrials(trials); err != nil {
		return nil, err
	}
	runner, err := newTrialRunner(params, builders, eng)
	if err != nil {
		return nil, err
	}
	results := newMCResults(builders)
	for t := 0; t < trials; t++ {
		if err := runner.accumulate(seed, t, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// checkTrials refuses a negative trial count. Zero trials is a valid, empty
// evaluation: one labelled MCResult per builder with nothing in it.
func checkTrials(trials int) error {
	if trials < 0 {
		return fmt.Errorf("avail: %d trials: the trial count must not be negative", trials)
	}
	return nil
}

func newMCResults(builders []SpecBuilder) []MCResult {
	results := make([]MCResult, len(builders))
	for i, b := range builders {
		results[i].Label = b.Label
	}
	return results
}

// FormatMCTable renders Monte Carlo results as an aligned text table.
func FormatMCTable(results []MCResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %12s %12s %10s\n",
		"protocol", "trials", "term-rate", "blocked", "read-avail", "write-avail", "violations")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8s %8d %11.1f%% %12d %11.1f%% %11.1f%% %10d\n",
			r.Label, r.Trials,
			100*r.Counts.TerminationRate(), r.Counts.Blocked,
			100*r.Counts.ReadAvailability(), 100*r.Counts.WriteAvailability(),
			r.Violations)
	}
	return b.String()
}
