package qcommit

import (
	"fmt"
	"time"

	"qcommit/internal/live"
	"qcommit/internal/transport"
	"qcommit/internal/transport/tcp"
)

// LiveOptions configures a live (goroutine-per-site, wall-clock) cluster.
type LiveOptions struct {
	// Protocol selects the commit+termination protocol. Default ProtoQC1.
	Protocol Protocol
	// Strategy selects the data-access strategy (StrategyQuorum default, or
	// StrategyMissingWrites), as in Options.
	Strategy Strategy
	// Seed drives delay randomness.
	Seed int64
	// MinDelay/MaxDelay bound simulated propagation delay (wall clock).
	// Defaults 200µs–2ms; a MinDelay needs a MaxDelay at least as large.
	MinDelay, MaxDelay time.Duration
	// TimeoutBase is the protocol timeout unit T (zero defaults to
	// 4×MaxDelay; raise it on loaded machines). Negative is an error.
	TimeoutBase time.Duration
	// SkeenVc/SkeenVa as in Options.
	SkeenVc, SkeenVa int
	// Transport selects the fabric carrying protocol frames between sites:
	// "inproc" (or empty, the default) delivers through in-process mailboxes
	// with the simulated MinDelay/MaxDelay propagation; "tcp" gives every
	// site a real loopback TCP endpoint and runs each frame through the
	// stream codec and the sockets, trading speed for wire fidelity. For a
	// cluster of separate processes on separate machines, run cmd/qcommitd
	// instead.
	Transport string
}

// LiveCluster runs the same protocols on real goroutines and wall-clock
// timers — the deployment-shaped runtime, as opposed to the deterministic
// simulator behind Cluster. Protocol automata are shared between the two.
type LiveCluster struct {
	lc *live.Cluster
}

// NewLiveCluster builds and starts a live cluster (one goroutine per site).
// Call Stop when done.
func NewLiveCluster(items []ReplicatedItem, opts LiveOptions) (*LiveCluster, error) {
	if !opts.Strategy.Valid() {
		return nil, fmt.Errorf("qcommit: invalid LiveOptions.Strategy %v", opts.Strategy)
	}
	if err := checkNet("LiveOptions", opts.MinDelay, opts.MaxDelay, 0, 0); err != nil {
		return nil, err
	}
	if opts.TimeoutBase < 0 {
		return nil, fmt.Errorf("qcommit: negative LiveOptions.TimeoutBase %v", opts.TimeoutBase)
	}
	asgn, sites, err := assignmentOf(items, nil)
	if err != nil {
		return nil, err
	}
	spec, err := buildSpec("LiveOptions", opts.Protocol, opts.SkeenVc, opts.SkeenVa, sites)
	if err != nil {
		return nil, err
	}
	var tr transport.Transport
	timeoutBase := opts.TimeoutBase
	switch opts.Transport {
	case "", "inproc":
		// live.New builds the in-process fabric from the delay options.
	case "tcp":
		fab, err := tcp.NewFabric(sites, tcp.Options{})
		if err != nil {
			return nil, fmt.Errorf("qcommit: tcp transport: %w", err)
		}
		tr = fab
		if timeoutBase == 0 {
			// Loopback sockets don't pay the simulated propagation delay the
			// 4×MaxDelay default is calibrated for, but they do pay kernel
			// scheduling; give T socket-sized headroom.
			timeoutBase = 50 * time.Millisecond
		}
	default:
		return nil, fmt.Errorf("qcommit: unknown LiveOptions.Transport %q (want \"inproc\" or \"tcp\")", opts.Transport)
	}
	lc := live.New(live.Config{
		Assignment:  asgn,
		Strategy:    opts.Strategy,
		Spec:        spec,
		MinDelay:    opts.MinDelay,
		MaxDelay:    opts.MaxDelay,
		TimeoutBase: timeoutBase,
		Seed:        opts.Seed,
		Transport:   tr,
	})
	// Apply initial values.
	for _, it := range items {
		for _, s := range it.Sites {
			lc.Node(s).Store().Init(it.Name, it.Initial)
		}
	}
	return &LiveCluster{lc: lc}, nil
}

// Submit starts a transaction at the coordinator site.
func (c *LiveCluster) Submit(coord SiteID, writes map[ItemID]int64) TxnID {
	return c.lc.Begin(coord, writesetOf(writes))
}

// WaitOutcome blocks until the transaction reaches a terminal outcome at all
// up sites, or the deadline passes. When it returns OutcomeCommitted, every
// up copy holder's store has the writeset; up sites that disagree return
// OutcomeSplit.
func (c *LiveCluster) WaitOutcome(txn TxnID, deadline time.Duration) Outcome {
	return c.lc.WaitOutcome(txn, deadline)
}

// OutcomeAt reads txn's fate at one site.
func (c *LiveCluster) OutcomeAt(id SiteID, txn TxnID) Outcome { return c.lc.OutcomeAt(id, txn) }

// Violated reports whether txn terminated inconsistently anywhere.
func (c *LiveCluster) Violated(txn TxnID) bool { return c.lc.Violated(txn) }

// Crash takes a site down.
func (c *LiveCluster) Crash(id SiteID) { c.lc.Crash(id) }

// Restart recovers a crashed site from its WAL.
func (c *LiveCluster) Restart(id SiteID) { c.lc.Restart(id) }

// Partition splits the network.
func (c *LiveCluster) Partition(groups ...[]SiteID) { c.lc.Partition(groups...) }

// Heal reconnects the network.
func (c *LiveCluster) Heal() { c.lc.Heal() }

// Strategy returns the cluster's access strategy.
func (c *LiveCluster) Strategy() Strategy { return c.lc.Strategy() }

// ItemMode returns item's current missing-writes operating mode (always
// ModePessimistic under StrategyQuorum).
func (c *LiveCluster) ItemMode(item ItemID) Mode { return c.lc.Tracker().ItemMode(item) }

// MissingWritesAt returns the sites currently carrying missing writes for
// item, ascending (always empty under StrategyQuorum).
func (c *LiveCluster) MissingWritesAt(item ItemID) []SiteID { return c.lc.Tracker().MissingAt(item) }

// ModeTransitions returns the cumulative missing-writes mode transitions
// (demotions, restorations).
func (c *LiveCluster) ModeTransitions() (demotions, restorations int) {
	return c.lc.Tracker().ModeTransitions()
}

// VoteEpoch returns the version number of item's current dynamic vote table
// (always 0 under the static strategies).
func (c *LiveCluster) VoteEpoch(item ItemID) uint64 { return c.lc.Tracker().VoteEpoch(item) }

// VotesNow returns item's currently effective vote table, ascending by site
// (under StrategyDynamic, sites outside the majority basis are omitted).
func (c *LiveCluster) VotesNow(item ItemID) []VoteCopy { return c.lc.Tracker().VotesNow(item) }

// VoteTransitions returns the cumulative dynamic-voting reassignment
// counters (tables installed, full-basis restorations).
func (c *LiveCluster) VoteTransitions() (reassignments, restorations int) {
	return c.lc.Tracker().VoteTransitions()
}

// CopyAt reads the raw copy at one site.
func (c *LiveCluster) CopyAt(id SiteID, item ItemID) (int64, uint64, error) {
	v, err := c.lc.Node(id).Store().Read(item)
	if err != nil {
		return 0, 0, err
	}
	return v.Value, v.Version, nil
}

// Stop shuts down all site goroutines.
func (c *LiveCluster) Stop() { c.lc.Stop() }
