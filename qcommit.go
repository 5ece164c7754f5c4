// Package qcommit is a library implementation of the quorum-based commit and
// termination protocols of Huang & Li, "A Quorum-based Commit and
// Termination Protocol for Distributed Database Systems" (ICDE 1988),
// together with the baselines the paper compares against: two-phase commit
// with cooperative termination, Skeen's three-phase commit with its
// site-failure termination protocol, and Skeen's quorum-based commit
// protocol.
//
// The library simulates a replicated distributed database: data items have
// weighted-voting replicas (Gifford quorums r(x)/w(x)), sites keep
// write-ahead logs, lock tables and versioned stores, and transactions
// commit atomically through a pluggable commit+termination protocol. The
// deterministic discrete-event network lets you crash sites, lose messages
// and partition the network at exact points, then measure what the paper
// cares about: which partitions can terminate the transaction and which
// data items remain accessible.
//
// # Quick start
//
//	cluster, err := qcommit.NewCluster([]qcommit.ReplicatedItem{
//		{Name: "x", Sites: []qcommit.SiteID{1, 2, 3, 4}, R: 2, W: 3},
//	}, qcommit.Options{Protocol: qcommit.ProtoQC1, Seed: 1})
//	...
//	txn := cluster.Submit(1, map[qcommit.ItemID]int64{"x": 42})
//	cluster.Run()
//	fmt.Println(cluster.Outcome(txn)) // committed
//
// See the examples directory for partition and failure scenarios.
package qcommit

import (
	"qcommit/internal/avail"
	"qcommit/internal/sim"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// Re-exported identifier and result types.
type (
	// SiteID identifies a database site (sites are numbered from 1).
	SiteID = types.SiteID
	// ItemID names a replicated data item.
	ItemID = types.ItemID
	// TxnID identifies a transaction.
	TxnID = types.TxnID
	// State is a participant's local protocol state (q/W/PC/PA/C/A).
	State = types.State
	// Outcome is a transaction's fate at a site or partition.
	Outcome = types.Outcome
	// Writeset is a transaction's ordered list of updates.
	Writeset = types.Writeset
	// Update is one write in a writeset.
	Update = types.Update
	// Duration is virtual time (nanoseconds).
	Duration = sim.Duration
	// Time is a virtual timestamp.
	Time = sim.Time
	// AvailabilityReport is the per-partition, per-item accessibility
	// analysis of a transaction's aftermath.
	AvailabilityReport = avail.Report
)

// Local state constants.
const (
	StateInitial   = types.StateInitial
	StateWait      = types.StateWait
	StatePC        = types.StatePC
	StatePA        = types.StatePA
	StateCommitted = types.StateCommitted
	StateAborted   = types.StateAborted
)

// Outcome constants.
const (
	OutcomeUnknown   = types.OutcomeUnknown
	OutcomeCommitted = types.OutcomeCommitted
	OutcomeAborted   = types.OutcomeAborted
	OutcomeBlocked   = types.OutcomeBlocked
	OutcomeSplit     = types.OutcomeSplit
)

// Duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Strategy selects the data-access (partition-processing) strategy layered
// over the weighted-voting assignment.
type Strategy = voting.Strategy

// Access strategies.
const (
	// StrategyQuorum is Gifford weighted voting: every read collects r(x)
	// votes and every write w(x) votes, always. The default.
	StrategyQuorum = voting.StrategyQuorum
	// StrategyMissingWrites is Eager & Sevcik's adaptive scheme (ACM TODS
	// 1983, reference [5] of the paper): read-one/write-all while an item
	// has no missing writes, demotion to pessimistic quorum mode when a
	// committed write misses a copy, restoration once stale copies catch up
	// (on heal or restart, via anti-entropy).
	StrategyMissingWrites = voting.StrategyMissingWrites
	// StrategyDynamic is dynamic vote reassignment (Jajodia & Mutchler,
	// SIGMOD 1987; Barbara, Garcia-Molina & Spauster, ACM TODS 1989): after
	// each committed write (and at heal/restart catch-up) the reachable
	// majority of an item's copies installs a new version-numbered vote
	// table in which only the current survivor set holds votes, so quorums
	// are majorities of the survivors. Epoch guards keep a stale minority
	// from ever forming a quorum; Cluster.VoteEpoch and VotesNow expose the
	// tables.
	StrategyDynamic = voting.StrategyDynamic
)

// AllStrategies lists the supported access strategies in comparison order.
func AllStrategies() []Strategy {
	return []Strategy{StrategyQuorum, StrategyMissingWrites, StrategyDynamic}
}

// ParseStrategy maps a command-line spelling ("quorum", "missing-writes"/
// "mw", "dynamic"/"dv"; the empty string means the StrategyQuorum default)
// onto a Strategy. Unrecognized spellings return a non-nil error together
// with voting.StrategyInvalid — never a usable strategy — so a dropped
// error cannot silently select the quorum fallback.
func ParseStrategy(s string) (Strategy, error) { return voting.ParseStrategy(s) }

// VoteCopy is one entry of a vote table: a site and its current weight.
type VoteCopy = voting.Copy

// Mode is an item's current missing-writes operating mode.
type Mode = voting.Mode

// Item access modes.
const (
	// ModeOptimistic: read any single copy, write all copies. Requires no
	// missing writes (StrategyMissingWrites only).
	ModeOptimistic = voting.Optimistic
	// ModePessimistic: quorum reads and writes with the configured
	// r(x)/w(x). Items under StrategyQuorum are always in this mode.
	ModePessimistic = voting.Pessimistic
)

// Protocol selects the commit + termination protocol family.
type Protocol string

// Supported protocols.
const (
	// Proto2PC is the two-phase commit protocol (Fig. 1) with cooperative
	// termination: the three-phase automata without the PREPARE-TO-COMMIT
	// round, terminated by the ladder with no quorum. Blocking under
	// coordinator failure.
	Proto2PC Protocol = "2PC"
	// Proto3PC is Skeen's three-phase commit (Fig. 2) with the site-failure
	// termination protocol. Nonblocking for site failures but INCONSISTENT
	// under network partitioning (the paper's Example 2); provided as a
	// baseline only.
	Proto3PC Protocol = "3PC"
	// ProtoSkeenQuorum is Skeen's quorum-based commit protocol with
	// site-vote quorums Vc/Va (reference [16] of the paper).
	ProtoSkeenQuorum Protocol = "SkeenQ"
	// ProtoQC1 is the paper's commit protocol 1 + termination protocol 1:
	// commit side counts w(x) replica votes for every written item, abort
	// side counts r(x) votes for some written item.
	ProtoQC1 Protocol = "QC1"
	// ProtoQC2 is the paper's commit protocol 2 + termination protocol 2,
	// with the r/w roles swapped; commits faster than QC1.
	ProtoQC2 Protocol = "QC2"
)

// AllProtocols lists every supported protocol in comparison order.
func AllProtocols() []Protocol {
	return []Protocol{Proto2PC, Proto3PC, ProtoSkeenQuorum, ProtoQC1, ProtoQC2}
}
