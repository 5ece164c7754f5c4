package qcommit

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"qcommit/internal/avail"
	"qcommit/internal/core"
	"qcommit/internal/engine"
	"qcommit/internal/msg"
	"qcommit/internal/simnet"
	"qcommit/internal/trace"
	"qcommit/internal/voting"
)

// ReplicatedItem declares one data item and its weighted-voting replicas.
type ReplicatedItem struct {
	// Name is the item's identifier.
	Name ItemID
	// Sites hold one copy each. With Votes nil every copy weighs 1 vote;
	// otherwise Votes[i] is the weight of the copy at Sites[i].
	Sites []SiteID
	Votes []int
	// R and W are the read and write quorums, which must satisfy
	// r+w > total votes and w > total/2. Zero values select majority
	// quorums.
	R, W int
	// Initial is the starting value of every copy (version 1).
	Initial int64
}

// Options configures a cluster.
type Options struct {
	// Protocol selects the commit+termination protocol. Default ProtoQC1.
	Protocol Protocol
	// Strategy selects the data-access strategy: StrategyQuorum (default)
	// or StrategyMissingWrites (adaptive read-one/write-all with demotion
	// to quorum mode while copies carry missing writes).
	Strategy Strategy
	// Seed drives all randomness (message delays, loss) deterministically.
	Seed int64
	// MinDelay/MaxDelay bound message propagation delay. MaxDelay is the
	// paper's T (timeout base). Defaults: 1ms/10ms; a MinDelay needs a
	// MaxDelay at least as large.
	MinDelay, MaxDelay Duration
	// LossProb is the independent probability a message is lost, in [0, 1].
	LossProb float64
	// DupProb is the probability a message is duplicated, in [0, 1].
	DupProb float64
	// SkeenVc and SkeenVa are the site-vote quorums for ProtoSkeenQuorum
	// (one vote per site). Zero values select Vc = majority, Va = V+1-Vc.
	// Any other protocol refuses them.
	SkeenVc, SkeenVa int
	// MaxTerminationRounds caps termination retries before a partition
	// resigns to blocking. Default 3.
	MaxTerminationRounds int
	// ExtraSites adds sites that hold no copies (pure coordinators).
	ExtraSites []SiteID
	// DisableTrace turns off event recording (faster Monte Carlo runs).
	DisableTrace bool
	// WALDir, when set, persists each site's write-ahead log to
	// WALDir/site<N>.wal. Rebuilding a cluster over the same directory
	// resumes it: committed state is restored from disk and unterminated
	// transactions rejoin the termination protocol. Call Close when done.
	WALDir string
}

// Cluster is a simulated replicated database running one protocol.
type Cluster struct {
	eng  *engine.Cluster
	opts Options
}

// NewCluster validates the replica declarations and builds the cluster.
func NewCluster(items []ReplicatedItem, opts Options) (*Cluster, error) {
	if !opts.Strategy.Valid() {
		return nil, fmt.Errorf("qcommit: invalid Options.Strategy %v", opts.Strategy)
	}
	if err := checkNet("Options", time.Duration(opts.MinDelay), time.Duration(opts.MaxDelay), opts.LossProb, opts.DupProb); err != nil {
		return nil, err
	}
	asgn, sites, err := assignmentOf(items, opts.ExtraSites)
	if err != nil {
		return nil, err
	}
	spec, err := buildSpec("Options", opts.Protocol, opts.SkeenVc, opts.SkeenVa, sites)
	if err != nil {
		return nil, err
	}

	netCfg := simnet.Config{
		MinDelay: opts.MinDelay,
		MaxDelay: opts.MaxDelay,
		LossProb: opts.LossProb,
		DupProb:  opts.DupProb,
		Codec:    true,
	}
	if netCfg.MinDelay == 0 && netCfg.MaxDelay == 0 {
		netCfg.MinDelay = 1 * Millisecond
		netCfg.MaxDelay = 10 * Millisecond
	}
	rec := trace.NewRecorder()
	if opts.DisableTrace {
		rec.Disable()
	}
	initials := make(map[ItemID]int64, len(items))
	for _, it := range items {
		initials[it.Name] = it.Initial
	}
	eng := engine.New(engine.Config{
		Seed:                 opts.Seed,
		Net:                  netCfg,
		Assignment:           asgn,
		Strategy:             opts.Strategy,
		Spec:                 spec,
		MaxTerminationRounds: opts.MaxTerminationRounds,
		ExtraSites:           opts.ExtraSites,
		Recorder:             rec,
		WALDir:               opts.WALDir,
		InitialValues:        initials,
	})
	return &Cluster{eng: eng, opts: opts}, nil
}

// checkNet rejects network settings no run can honour, naming the field of
// the options struct opt: a negative delay, MaxDelay below MinDelay, MinDelay
// without MaxDelay (T derives from MaxDelay, so every message would outlast
// the timeouts), and a loss or duplication probability outside [0, 1].
func checkNet(opt string, minDelay, maxDelay time.Duration, loss, dup float64) error {
	switch {
	case minDelay < 0:
		return fmt.Errorf("qcommit: negative %s.MinDelay %v", opt, minDelay)
	case maxDelay < 0:
		return fmt.Errorf("qcommit: negative %s.MaxDelay %v", opt, maxDelay)
	case maxDelay == 0 && minDelay > 0:
		return fmt.Errorf("qcommit: %s.MinDelay %v set without MaxDelay", opt, minDelay)
	case maxDelay < minDelay:
		return fmt.Errorf("qcommit: %s.MaxDelay %v < MinDelay %v", opt, maxDelay, minDelay)
	}
	for _, p := range []struct {
		field string
		v     float64
	}{{"LossProb", loss}, {"DupProb", dup}} {
		if !(p.v >= 0 && p.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("qcommit: %s.%s %v outside [0, 1]", opt, p.field, p.v)
		}
	}
	return nil
}

// assignmentOf builds the vote assignment the replica declarations describe
// and returns it with every site — the copies' and extraSites — ascending.
func assignmentOf(items []ReplicatedItem, extraSites []SiteID) (*voting.Assignment, []SiteID, error) {
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("qcommit: at least one replicated item is required")
	}
	configs := make([]voting.ItemConfig, 0, len(items))
	for _, it := range items {
		if len(it.Votes) != 0 && len(it.Votes) != len(it.Sites) {
			return nil, nil, fmt.Errorf("qcommit: item %q: Votes length %d != Sites length %d", it.Name, len(it.Votes), len(it.Sites))
		}
		copies := make([]voting.Copy, len(it.Sites))
		total := 0
		for i, s := range it.Sites {
			v := 1
			if len(it.Votes) > 0 {
				v = it.Votes[i]
			}
			copies[i] = voting.Copy{Site: s, Votes: v}
			total += v
		}
		r, w := it.R, it.W
		if r == 0 && w == 0 {
			w = total/2 + 1
			r = total + 1 - w
		}
		configs = append(configs, voting.ItemConfig{Item: it.Name, Copies: copies, R: r, W: w})
	}
	asgn, err := voting.NewAssignment(configs...)
	if err != nil {
		return nil, nil, err
	}
	sites := append(asgn.Sites(), extraSites...)
	slices.Sort(sites)
	return asgn, slices.Compact(sites), nil
}

// writesetOf turns a write map into a Writeset ordered by item.
func writesetOf(writes map[ItemID]int64) Writeset {
	ws := make(Writeset, 0, len(writes))
	for it, v := range writes {
		ws = append(ws, Update{Item: it, Value: v})
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Item < ws[j].Item })
	return ws
}

// buildSpec resolves the protocol name proto (default QC1) over sites. The
// Skeen quorums vc, va — fields SkeenVc and SkeenVa of the options struct
// opt — replace SkeenQ's majority default, and are refused under any other
// protocol rather than ignored.
func buildSpec(opt string, proto Protocol, vc, va int, sites []SiteID) (core.Spec, error) {
	name := string(proto)
	if name == "" {
		name = string(ProtoQC1)
	}
	spec, err := core.ByName(name, sites)
	if err != nil {
		return core.Spec{}, fmt.Errorf("qcommit: %w", err)
	}
	if vc == 0 && va == 0 {
		return spec, nil
	}
	if spec.Name() != string(ProtoSkeenQuorum) {
		field := "SkeenVc"
		if vc == 0 {
			field = "SkeenVa"
		}
		return core.Spec{}, fmt.Errorf("qcommit: %s.%s set under %s; only %s takes site-vote quorums", opt, field, spec.Name(), ProtoSkeenQuorum)
	}
	skeen := core.Uniform(sites, vc, va)
	if err := skeen.Validate(); err != nil {
		return core.Spec{}, fmt.Errorf("qcommit: %s.SkeenVc/SkeenVa: %w", opt, err)
	}
	return skeen, nil
}

// MustCluster is NewCluster panicking on error, for tests and examples.
func MustCluster(items []ReplicatedItem, opts Options) *Cluster {
	c, err := NewCluster(items, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// Engine exposes the underlying engine cluster for advanced use (scenario
// construction, custom analysis).
func (c *Cluster) Engine() *engine.Cluster { return c.eng }

// Close releases file-backed WALs (no-op for in-memory clusters).
func (c *Cluster) Close() error { return c.eng.Close() }

// Protocol returns the protocol under test.
func (c *Cluster) Protocol() Protocol { return Protocol(c.eng.Spec().Name()) }

// Sites returns all site IDs, ascending.
func (c *Cluster) Sites() []SiteID { return c.eng.Sites() }

// Submit starts a transaction at the coordinator site that writes the given
// values. Call Run (or RunFor) to drive the protocol.
func (c *Cluster) Submit(coord SiteID, writes map[ItemID]int64) TxnID {
	return c.eng.Begin(coord, writesetOf(writes))
}

// SetupInterrupted constructs a mid-protocol configuration directly (the
// paper's example scenarios): each site in states is a participant frozen in
// the given local state, holding write locks, with a matching WAL.
func (c *Cluster) SetupInterrupted(coord SiteID, writes map[ItemID]int64, states map[SiteID]State) TxnID {
	return c.eng.SetupInterrupted(coord, writesetOf(writes), states)
}

// Run drives the simulation until quiescence and returns the final virtual
// time.
func (c *Cluster) Run() Time { return c.eng.Run() }

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d Duration) Time { return c.eng.RunFor(d) }

// Now returns the current virtual time.
func (c *Cluster) Now() Time { return c.eng.Scheduler().Now() }

// Crash takes a site down now (volatile state lost, WAL kept).
func (c *Cluster) Crash(id SiteID) { c.eng.Crash(id) }

// CrashAt schedules a crash.
func (c *Cluster) CrashAt(t Time, id SiteID) { c.eng.CrashAt(t, id) }

// Restart recovers a crashed site from its WAL.
func (c *Cluster) Restart(id SiteID) { c.eng.Restart(id) }

// RestartAt schedules a restart.
func (c *Cluster) RestartAt(t Time, id SiteID) { c.eng.RestartAt(t, id) }

// Partition splits the network into the given groups now; unlisted sites
// form a residual group.
func (c *Cluster) Partition(groups ...[]SiteID) { c.eng.Partition(groups...) }

// PartitionAt schedules a partition.
func (c *Cluster) PartitionAt(t Time, groups ...[]SiteID) { c.eng.PartitionAt(t, groups...) }

// Heal reconnects the network now.
func (c *Cluster) Heal() { c.eng.Heal() }

// HealAt schedules a heal.
func (c *Cluster) HealAt(t Time) { c.eng.HealAt(t) }

// Kick resets termination budgets and retriggers the termination protocol
// for txn (use after healing or recovering sites).
func (c *Cluster) Kick(txn TxnID) { c.eng.Kick(txn) }

// KickAt schedules a Kick (pair with RestartAt/HealAt to script a recovery
// scenario end to end).
func (c *Cluster) KickAt(t Time, txn TxnID) { c.eng.KickAt(t, txn) }

// DropMessages installs a scripted message filter: messages for which drop
// returns true are lost. Pass nil to clear.
func (c *Cluster) DropMessages(drop func(from, to SiteID) bool) {
	if drop == nil {
		c.eng.Network().SetFilter(nil)
		return
	}
	c.eng.Network().SetFilter(func(e msg.Envelope) bool { return drop(e.From, e.To) })
}

// Outcome aggregates txn's fate across all sites: committed if any site
// committed, aborted if any aborted, blocked if any site is still uncertain
// with locks held.
func (c *Cluster) Outcome(txn TxnID) Outcome {
	return c.eng.GroupOutcome(txn, c.eng.Sites())
}

// OutcomeAt returns txn's fate at one site.
func (c *Cluster) OutcomeAt(id SiteID, txn TxnID) Outcome { return c.eng.OutcomeAt(id, txn) }

// Outcomes maps every involved site to its outcome.
func (c *Cluster) Outcomes(txn TxnID) map[SiteID]Outcome { return c.eng.Outcomes(txn) }

// StateOf returns the local protocol state of txn at a site (from the WAL).
func (c *Cluster) StateOf(id SiteID, txn TxnID) State { return c.eng.StateOf(id, txn) }

// Violations returns atomicity violations observed (a correct protocol
// yields none; Proto3PC under partitions is expected to violate).
func (c *Cluster) Violations() []string { return c.eng.Violations() }

// Availability computes the per-partition, per-item accessibility report for
// txn's aftermath (the paper's availability tables).
func (c *Cluster) Availability(txn TxnID) AvailabilityReport { return avail.Analyze(c.eng, txn) }

// Ladder renders the recorded message ladder (Figs. 1, 2, 9 style).
func (c *Cluster) Ladder() string { return c.eng.Recorder().Ladder(nil) }

// MessageLadder renders only message deliveries.
func (c *Cluster) MessageLadder() string { return c.eng.Recorder().Ladder(trace.MessagesOnly) }

// SequenceDiagram renders the recorded run as a column-per-site ASCII
// sequence diagram (the shape of the paper's Figs. 1, 2 and 9).
func (c *Cluster) SequenceDiagram() string {
	return c.eng.Recorder().Diagram(c.eng.Sites(), 0)
}

// NetworkStats returns message counters (sent, delivered, dropped...).
func (c *Cluster) NetworkStats() simnet.Stats { return c.eng.Network().Stats() }

// RefuseVotes makes a site vote no on all future transactions (models an
// I/O-subsystem failure).
func (c *Cluster) RefuseVotes(id SiteID, refuse bool) { c.eng.Site(id).RefuseVotes(refuse) }
