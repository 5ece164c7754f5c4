// Package churn measures steady-state availability under failure and repair
// timelines — the time-axis counterpart of package avail's frozen-snapshot
// Monte Carlo.
//
// Where avail replays a single interrupted commit against a static partition,
// a churn study drives a continuous transaction stream through a cluster
// whose world keeps changing: each site alternates between up and down
// through an exponential renewal process (mean up time MTTF, mean repair
// time MTTR), and the network optionally alternates between connected and
// partitioned (PartitionMTBF/PartitionMTTR, with a fresh random partition
// layout per split). Transactions arrive with exponential spacing, are
// submitted at a live replica of the data they write, and run the full
// commit protocol; when failures interrupt them, the termination protocol
// fights for a decision, and every repair event re-kicks whatever is still
// blocked. At the horizon the study tallies what a client of the system
// would have experienced: committed/aborted/blocked fractions,
// time-to-termination percentiles in virtual time, the share of
// post-submission time spent awaiting a decision, and safety violations.
//
// # Timeline model
//
// A run's world is drawn up front from its seed: replica placement (random
// CopiesPerItem sites per item, majority quorums), the per-site
// crash/restart timeline, the partition form/heal timeline, and the
// transaction stream. Every protocol column replays the identical world, so
// differences between columns isolate the commit and termination protocols
// — exactly the avail sweep's discipline, extended over time.
//
// Both engines run the same world (newWorld: seed tables, fault timeline,
// repair kicks; finishWorld: run to the horizon, read the fates). Replay
// submits every arrival into it, the hybrid engine only what arithmetic
// cannot decide.
//
// # Determinism
//
// A study is a pure function of (Params, runs, seed, specs): run r draws
// its script from seed+r, all scheduling happens through the deterministic
// simulator, and aggregation is integer addition plus an order-insensitive
// sort of latencies. StudyParallel exploits this: par.Ordered evaluates runs
// on a worker pool and merges them in run order, making its results
// bit-for-bit identical to the serial Study for any worker count.
package churn

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"qcommit/internal/avail"
	"qcommit/internal/sim"
	"qcommit/internal/stats"
	"qcommit/internal/voting"
)

// Params parameterizes a churn study.
type Params struct {
	// NumSites is the number of database sites.
	NumSites int
	// NumItems is the number of replicated data items.
	NumItems int
	// CopiesPerItem is the replication degree (majority quorums).
	CopiesPerItem int
	// WritesPerTxn is how many distinct items each transaction updates.
	WritesPerTxn int
	// HotFraction in [0,1) skews that share of writes onto the first item.
	HotFraction float64
	// MeanInterarrival is the mean spacing between transaction submissions
	// (exponential arrivals).
	MeanInterarrival sim.Duration
	// MTTF is each site's mean time to failure (mean up time). Zero
	// disables site churn.
	MTTF sim.Duration
	// MTTR is each site's mean time to repair (mean down time). Required
	// when MTTF is set.
	MTTR sim.Duration
	// PartitionMTBF is the mean time the network stays fully connected
	// between partition events. Zero disables partition churn.
	PartitionMTBF sim.Duration
	// PartitionMTTR is the mean duration of a partition. Required when
	// PartitionMTBF is set.
	PartitionMTTR sim.Duration
	// MaxGroups bounds the number of groups a partition event splits the
	// network into (≥2; only used with partition churn).
	MaxGroups int
	// Horizon is the virtual-time length of each run.
	Horizon sim.Duration
	// Strategy selects the data-access strategy the cluster runs under:
	// StrategyQuorum (default, pure Gifford quorums), StrategyMissingWrites
	// (adaptive read-one/write-all with demotion to quorum mode while
	// copies carry missing writes), or StrategyDynamic (vote reassignment:
	// every committed write re-anchors the item's quorum basis on the
	// copies it reached, so a surviving majority-of-survivors stays
	// available where static quorums lose a vote per failed copy). The
	// strategy changes what the read/write availability samples measure and
	// how items churn between modes or vote tables; the commit protocols
	// themselves are unchanged.
	Strategy voting.Strategy
	// Engine selects the evaluation engine: EngineReplay (default) replays
	// every transaction through the discrete-event engine, EngineHybrid
	// decides transactions analytically when their commit window fits
	// inside a single fault epoch and replays only the rest. Transaction
	// fates are bit-identical between the two; see hybrid.go for the
	// documented approximations in the auxiliary availability counters.
	Engine Engine
}

// Engine selects how a churn study evaluates transaction fates.
type Engine int

const (
	// EngineReplay replays every transaction through the full
	// discrete-event engine. It is the differential oracle the hybrid
	// engine is pinned against.
	EngineReplay Engine = iota
	// EngineHybrid classifies each transaction at arrival time: if its
	// whole commit window falls inside one epoch of the fault timeline it
	// is decided by quorum arithmetic, otherwise it is replayed in a
	// shared fallback world that simulates only such transactions.
	EngineHybrid
)

// Valid reports whether e is a known engine.
func (e Engine) Valid() bool { return e == EngineReplay || e == EngineHybrid }

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineReplay:
		return "replay"
	case EngineHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine converts a CLI engine name into an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "replay":
		return EngineReplay, nil
	case "hybrid":
		return EngineHybrid, nil
	default:
		return 0, fmt.Errorf("churn: unknown engine %q (want replay or hybrid)", s)
	}
}

// PlacementError reports a Params whose replica-placement geometry is
// impossible: the script generator could not place CopiesPerItem distinct
// replicas per item, or draw WritesPerTxn distinct items per transaction.
// It is returned (wrapped) from Study/StudyParallel before any run starts,
// so large grids fail fast with a typed error instead of a mid-run panic.
type PlacementError struct {
	Sites  int
	Items  int
	Copies int
	Writes int
	Reason string
}

// Error implements error.
func (e *PlacementError) Error() string {
	return fmt.Sprintf("churn: impossible replica placement (%d sites, %d items, %d copies/item, %d writes/txn): %s",
		e.Sites, e.Items, e.Copies, e.Writes, e.Reason)
}

func (p Params) placementError(reason string) *PlacementError {
	return &PlacementError{
		Sites:  p.NumSites,
		Items:  p.NumItems,
		Copies: p.CopiesPerItem,
		Writes: p.WritesPerTxn,
		Reason: reason,
	}
}

// DefaultParams mirrors the avail sweep's scale (8 sites, 4 items ×4
// copies, 2 writes per transaction) with moderate site churn: sites fail
// every ~2s of virtual time and repair in ~400ms, transactions arrive every
// ~100ms, and each run observes 5s. Partition churn is off by default so
// the default study isolates the site-failure/repair axis (enable it via
// PartitionMTBF/PartitionMTTR).
func DefaultParams() Params {
	return Params{
		NumSites:         8,
		NumItems:         4,
		CopiesPerItem:    4,
		WritesPerTxn:     2,
		MeanInterarrival: 100 * sim.Millisecond,
		MTTF:             2 * sim.Second,
		MTTR:             400 * sim.Millisecond,
		MaxGroups:        3,
		Horizon:          5 * sim.Second,
	}
}

func (p Params) validate() error {
	if p.NumSites < 2 {
		return p.placementError("need at least 2 sites")
	}
	if p.NumItems < 1 {
		return p.placementError("need at least 1 item")
	}
	if p.CopiesPerItem < 1 {
		return p.placementError("need at least 1 copy per item")
	}
	if p.WritesPerTxn < 1 {
		return p.placementError("need at least 1 write per transaction")
	}
	if p.CopiesPerItem > p.NumSites {
		return p.placementError(fmt.Sprintf("cannot place %d distinct copies on %d sites", p.CopiesPerItem, p.NumSites))
	}
	if p.WritesPerTxn > p.NumItems {
		return p.placementError(fmt.Sprintf("cannot draw %d distinct written items from %d items", p.WritesPerTxn, p.NumItems))
	}
	if math.IsNaN(p.HotFraction) || p.HotFraction < 0 || p.HotFraction >= 1 {
		return fmt.Errorf("churn: HotFraction %v outside [0,1)", p.HotFraction)
	}
	if !p.Strategy.Valid() {
		return fmt.Errorf("churn: invalid Strategy %v", p.Strategy)
	}
	if p.MeanInterarrival <= 0 {
		return fmt.Errorf("churn: MeanInterarrival must be positive, got %d", p.MeanInterarrival)
	}
	if p.Horizon <= 0 {
		return fmt.Errorf("churn: Horizon must be positive, got %d", p.Horizon)
	}
	if p.MTTF < 0 || p.MTTR < 0 || p.PartitionMTBF < 0 || p.PartitionMTTR < 0 {
		return fmt.Errorf("churn: negative timeline parameter in %+v", p)
	}
	if p.MTTF > 0 && p.MTTR == 0 {
		return fmt.Errorf("churn: MTTF set but MTTR zero (repairs would never finish)")
	}
	if p.PartitionMTBF > 0 {
		if p.PartitionMTTR == 0 {
			return fmt.Errorf("churn: PartitionMTBF set but PartitionMTTR zero")
		}
		if p.MaxGroups < 2 {
			return fmt.Errorf("churn: MaxGroups %d < 2 with partition churn enabled", p.MaxGroups)
		}
	}
	if !p.Engine.Valid() {
		return fmt.Errorf("churn: invalid Engine %v", p.Engine)
	}
	return nil
}

// Counts aggregates what the transaction stream experienced.
type Counts struct {
	// Arrivals counts generated submissions, including rejected ones.
	Arrivals int
	// Submitted counts transactions that found a live coordinator.
	Submitted int
	// Committed / Aborted count submitted transactions that reached that
	// decision at some site before the horizon.
	Committed int
	Aborted   int
	// Blocked counts submitted transactions still undecided at the horizon
	// with some site uncertain (voted, holding locks).
	Blocked int
	// Unresolved counts submitted transactions that left no trace anywhere
	// (the coordinator crashed before any site voted); no locks are held.
	Unresolved int
	// Rejected counts arrivals whose every participant replica was down at
	// submission time (the client could not even submit).
	Rejected int
	// PendingNS sums, over submitted transactions, the virtual time from
	// submission until the first decision (or until the horizon for
	// transactions that never terminated).
	PendingNS int64
	// PostSubmitNS sums horizon-minus-submission over submitted
	// transactions; PendingNS/PostSubmitNS is the blocked-time share.
	PostSubmitNS int64
	// SiteDownNS sums per-site down time within the horizon (timeline
	// context, identical across protocol columns of a run).
	SiteDownNS int64
	// PartitionedNS is the virtual time the network spent partitioned.
	PartitionedNS int64
	// AccessChecks counts per-item data-access availability samples: at
	// every arrival, each item the transaction writes is probed once for
	// readability and once for writability from the client's preferred
	// coordinator. ReadAvailable/WriteAvailable count the probes that found
	// a read (write) quorum under the study's access strategy — under
	// StrategyMissingWrites an optimistic item reads off any single fresh
	// copy, so read availability exceeds the quorum strategy's while
	// failures are rare and falls behind once items sit demoted.
	AccessChecks   int
	ReadAvailable  int
	WriteAvailable int
	// ModeDemotions and ModeRestorations count missing-writes mode
	// transitions across the run (always zero under StrategyQuorum):
	// demotions are commits that missed a copy while the item was
	// optimistic, restorations are catch-ups that cleared an item's last
	// missing write.
	ModeDemotions    int
	ModeRestorations int
	// VoteReassignments and VoteRestorations count dynamic-voting
	// reassignment churn (nonzero only under StrategyDynamic):
	// reassignments are vote tables installed — each committed write or
	// catch-up that changed an item's majority basis — and restorations are
	// the subset that restored the full static copy set.
	VoteReassignments int
	VoteRestorations  int
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Arrivals += other.Arrivals
	c.Submitted += other.Submitted
	c.Committed += other.Committed
	c.Aborted += other.Aborted
	c.Blocked += other.Blocked
	c.Unresolved += other.Unresolved
	c.Rejected += other.Rejected
	c.PendingNS += other.PendingNS
	c.PostSubmitNS += other.PostSubmitNS
	c.SiteDownNS += other.SiteDownNS
	c.PartitionedNS += other.PartitionedNS
	c.AccessChecks += other.AccessChecks
	c.ReadAvailable += other.ReadAvailable
	c.WriteAvailable += other.WriteAvailable
	c.ModeDemotions += other.ModeDemotions
	c.ModeRestorations += other.ModeRestorations
	c.VoteReassignments += other.VoteReassignments
	c.VoteRestorations += other.VoteRestorations
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// CommittedFraction is the share of submitted transactions that committed.
func (c Counts) CommittedFraction() float64 { return frac(c.Committed, c.Submitted) }

// AbortedFraction is the share of submitted transactions that aborted.
func (c Counts) AbortedFraction() float64 { return frac(c.Aborted, c.Submitted) }

// TerminatedFraction is the share of submitted transactions that reached a
// decision (commit or abort) before the horizon.
func (c Counts) TerminatedFraction() float64 { return frac(c.Committed+c.Aborted, c.Submitted) }

// BlockedFraction is the share of submitted transactions still blocked at
// the horizon.
func (c Counts) BlockedFraction() float64 { return frac(c.Blocked, c.Submitted) }

// ReadAvailability is the share of arrival-time access probes that found a
// read quorum for the probed item under the study's strategy.
func (c Counts) ReadAvailability() float64 { return frac(c.ReadAvailable, c.AccessChecks) }

// WriteAvailability is the share of arrival-time access probes that found a
// write quorum for the probed item.
func (c Counts) WriteAvailability() float64 { return frac(c.WriteAvailable, c.AccessChecks) }

// BlockedTimeShare is the share of post-submission virtual time that
// submitted transactions spent awaiting a decision: 0 means every
// transaction terminated instantly, 1 means nothing ever terminated. It is
// the time-integrated price of blocking — a transaction that blocks early
// in the horizon weighs more than one that blocks near the end.
func (c Counts) BlockedTimeShare() float64 {
	if c.PostSubmitNS == 0 {
		return 0
	}
	return float64(c.PendingNS) / float64(c.PostSubmitNS)
}

// Result is the aggregate of one protocol column across all runs.
type Result struct {
	Label  string
	Runs   int
	Counts Counts
	// Violations counts atomicity violations plus store-consistency issues
	// across all runs (a correct protocol yields zero).
	Violations int
	// Latencies holds the time-to-termination of every terminated
	// transaction across all runs, sorted ascending.
	Latencies []sim.Duration
}

// add accumulates other into r, appending its latencies unsorted.
func (r *Result) add(other Result) {
	r.Runs += other.Runs
	r.Counts.Add(other.Counts)
	r.Violations += other.Violations
	r.Latencies = append(r.Latencies, other.Latencies...)
}

// LatencyPercentile returns the p-th percentile (0 < p ≤ 100) of the
// time-to-termination distribution by the nearest-rank method, or 0 with no
// terminated transactions.
func (r Result) LatencyPercentile(p float64) sim.Duration {
	return stats.PercentileNearestRank(r.Latencies, p)
}

// CommittedCI is the 95% Wilson interval around CommittedFraction, treating
// each submitted transaction as one Bernoulli trial. Transactions in a run
// share a timeline and so are positively correlated; read the interval as
// precision-of-the-pool rather than strict coverage (the avail package's
// caveat applies here too).
func (r Result) CommittedCI() (lo, hi float64) {
	return avail.WilsonInterval(r.Counts.Committed, r.Counts.Submitted, avail.Z95)
}

// TerminatedCI is the 95% Wilson interval around TerminatedFraction.
func (r Result) TerminatedCI() (lo, hi float64) {
	return avail.WilsonInterval(r.Counts.Committed+r.Counts.Aborted, r.Counts.Submitted, avail.Z95)
}

// ms renders a virtual duration in milliseconds.
func ms(d sim.Duration) float64 { return float64(d) / 1e6 }

// FormatTable renders study results as an aligned text table. The rd-avl
// and wr-avl columns are the arrival-time read/write availability samples;
// under StrategyMissingWrites each row additionally reports the item-mode
// churn as modes=demotions/restorations, and under StrategyDynamic the
// reassignment churn as votes=reassignments/restorations.
func FormatTable(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s %6s %10s %9s %9s %9s %9s %9s %10s %8s %8s\n",
		"protocol", "runs", "txns", "committed", "aborted", "blocked", "p50(ms)", "p95(ms)", "p99(ms)", "blkshare", "rd-avl", "wr-avl")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8s %6d %6d %9.1f%% %8.1f%% %8.1f%% %9.2f %9.2f %9.2f %9.1f%% %7.1f%% %7.1f%%",
			r.Label, r.Runs, r.Counts.Submitted,
			100*r.Counts.CommittedFraction(), 100*r.Counts.AbortedFraction(), 100*r.Counts.BlockedFraction(),
			ms(r.LatencyPercentile(50)), ms(r.LatencyPercentile(95)), ms(r.LatencyPercentile(99)),
			100*r.Counts.BlockedTimeShare(),
			100*r.Counts.ReadAvailability(), 100*r.Counts.WriteAvailability())
		if r.Counts.ModeDemotions > 0 || r.Counts.ModeRestorations > 0 {
			fmt.Fprintf(&b, "  modes=%d/%d", r.Counts.ModeDemotions, r.Counts.ModeRestorations)
		}
		if r.Counts.VoteReassignments > 0 || r.Counts.VoteRestorations > 0 {
			fmt.Fprintf(&b, "  votes=%d/%d", r.Counts.VoteReassignments, r.Counts.VoteRestorations)
		}
		if r.Violations > 0 {
			fmt.Fprintf(&b, "  VIOLATIONS=%d", r.Violations)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTableCI renders study results with 95% Wilson intervals on the
// committed and terminated fractions, plus the same rd-avl/wr-avl
// availability, mode-churn and reassignment-churn columns as FormatTable.
func FormatTableCI(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s %6s %22s %22s %10s %8s %8s %10s\n",
		"protocol", "runs", "txns", "committed [95% CI]", "terminated [95% CI]", "blkshare", "rd-avl", "wr-avl", "violations")
	for _, r := range results {
		clo, chi := r.CommittedCI()
		tlo, thi := r.TerminatedCI()
		fmt.Fprintf(&b, "%-8s %6d %6d %7.1f%% [%5.1f,%5.1f]%% %7.1f%% [%5.1f,%5.1f]%% %9.1f%% %7.1f%% %7.1f%% %10d",
			r.Label, r.Runs, r.Counts.Submitted,
			100*r.Counts.CommittedFraction(), 100*clo, 100*chi,
			100*r.Counts.TerminatedFraction(), 100*tlo, 100*thi,
			100*r.Counts.BlockedTimeShare(),
			100*r.Counts.ReadAvailability(), 100*r.Counts.WriteAvailability(),
			r.Violations)
		if r.Counts.ModeDemotions > 0 || r.Counts.ModeRestorations > 0 {
			fmt.Fprintf(&b, "  modes=%d/%d", r.Counts.ModeDemotions, r.Counts.ModeRestorations)
		}
		if r.Counts.VoteReassignments > 0 || r.Counts.VoteRestorations > 0 {
			fmt.Fprintf(&b, "  votes=%d/%d", r.Counts.VoteReassignments, r.Counts.VoteRestorations)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sortLatencies finalizes results after accumulation: the per-run latency
// streams become one ascending distribution per protocol.
func sortLatencies(results []Result) {
	for i := range results {
		slices.Sort(results[i].Latencies)
	}
}
