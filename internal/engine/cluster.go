package engine

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"

	"qcommit/internal/core"
	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/sim"
	"qcommit/internal/simnet"
	"qcommit/internal/storage"
	"qcommit/internal/trace"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// Config parameterizes a simulated cluster.
type Config struct {
	// Seed drives all randomness (message delays, loss) deterministically.
	Seed int64
	// Net configures the simulated network.
	Net simnet.Config
	// Assignment is the cluster-wide weighted-voting configuration.
	Assignment *voting.Assignment
	// Strategy selects the data-access strategy layered over the
	// assignment: StrategyQuorum (default) runs Gifford quorum reads and
	// writes unconditionally; StrategyMissingWrites runs optimistic
	// read-one/write-all until a committed write misses a copy, then
	// demotes that item to pessimistic quorum mode until anti-entropy
	// catches the stale copies up (see internal/voting.Adaptive);
	// StrategyDynamic reassigns votes to the copies each committed write
	// reaches, so quorums are majorities of the current survivor set under
	// version-numbered, epoch-guarded vote tables (see
	// internal/voting.Dynamic). The commit and termination protocols
	// themselves always run on the static assignment.
	Strategy voting.Strategy
	// Spec is the commit+termination protocol under test (the zero Spec is
	// QC1). New panics if it fails Validate.
	Spec core.Spec
	// T is the longest end-to-end propagation delay (timeout base).
	// Defaults to Net.MaxDelay.
	T sim.Duration
	// MaxTerminationRounds caps how many election/termination rounds a site
	// will initiate before resigning to a block; Kick resets the budget.
	// Defaults to 3.
	MaxTerminationRounds int
	// ExtraSites adds sites that hold no copies (pure coordinators).
	ExtraSites []types.SiteID
	// InitialValue seeds every copy of every item.
	InitialValue int64
	// InitialValues overrides InitialValue per item.
	InitialValues map[types.ItemID]int64
	// SeedStores, when set, is each site's seed table (see SeedTables),
	// and InitialValue(s) are ignored. The tables are shared, not cloned:
	// every store reads through to its table and keeps only the copies
	// written since in a map of its own, so the tables must not change
	// while the cluster runs, and CheckStores audits only written copies.
	// Callers that build many identical worlds over one placement (the
	// hybrid churn engine) compute the tables once and pass them to every
	// world.
	SeedStores map[types.SiteID]map[types.ItemID]storage.Versioned
	// Recorder receives trace events; nil allocates a fresh one.
	Recorder *trace.Recorder
	// WALDir, when set, persists each site's write-ahead log to a
	// wal.GroupLog at WALDir/site<N>.wal instead of in-memory stable storage
	// (Close closes them). A cluster created over existing logs resumes
	// them: committed/aborted state is restored and unterminated voted
	// transactions rejoin the termination protocol (as after a full-cluster
	// restart).
	WALDir string
}

func (c Config) withDefaults() Config {
	if c.T <= 0 {
		c.T = c.Net.MaxDelayOrDefault()
	}
	if c.Recorder == nil {
		c.Recorder = trace.NewRecorder()
	}
	return c
}

// Cluster is a simulated distributed database running one protocol.
type Cluster struct {
	cfg        Config
	sched      *sim.Scheduler
	net        *simnet.Network
	sites      types.SiteTable[*Site]
	siteIDs    []types.SiteID
	nextTxn    types.TxnID
	violations []string
	rec        *trace.Recorder
	// tracker is the access-strategy layer every site kernel reports
	// applied commits and installed copies to; it sees the sites through
	// peers (access.go).
	tracker *voting.Tracker
	// expiries are fired timers' event bodies, reused by AfterFunc.
	expiries []*expiry
}

// New builds a cluster: one site per site mentioned in the assignment (plus
// ExtraSites), stores seeded with InitialValue at version 1.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if cfg.Assignment == nil {
		panic("engine: Config.Assignment is required")
	}
	if err := cfg.Spec.Validate(); err != nil {
		panic(fmt.Sprintf("engine: Config.Spec: %v", err))
	}
	if !cfg.Strategy.Valid() {
		panic(fmt.Sprintf("engine: invalid Config.Strategy %v", cfg.Strategy))
	}
	sched := sim.NewScheduler(cfg.Seed)
	sched.MaxSteps = 2_000_000 // livelock guard
	net := simnet.New(sched, cfg.Net)
	cl := &Cluster{
		cfg:   cfg,
		sched: sched,
		net:   net,
		rec:   cfg.Recorder,
	}
	cl.tracker = voting.NewTracker(cfg.Assignment, cfg.Strategy, (*peers)(cl))

	cl.siteIDs = append(cfg.Assignment.Sites(), cfg.ExtraSites...)
	slices.Sort(cl.siteIDs)
	cl.siteIDs = slices.Compact(cl.siteIDs)

	for _, id := range cl.siteIDs {
		var log wal.Log
		if cfg.WALDir != "" {
			gl, err := wal.OpenGroupLog(filepath.Join(cfg.WALDir, fmt.Sprintf("site%d.wal", id)))
			if err != nil {
				panic(fmt.Sprintf("engine: open WAL for %s: %v", id, err))
			}
			log = gl
		}
		st := newSite(id, cl, log)
		cl.sites.Set(id, st)
		net.Register(id, st.handle)
	}
	seeds := cfg.SeedStores
	if seeds == nil {
		seeds = SeedTables(cfg.Assignment, cfg.InitialValue, cfg.InitialValues)
	}
	for _, id := range cl.siteIDs {
		if tbl, ok := seeds[id]; ok {
			cl.sites.Get(id).store.InitFrom(tbl)
		}
	}
	if cfg.WALDir != "" {
		cl.resumeFromLogs()
	}
	return cl
}

// SeedTables builds the initial store table of every site holding a copy:
// each copy at version 1, valued initialValues[item] if present, initial
// otherwise. The result is what Config.SeedStores takes.
func SeedTables(asgn *voting.Assignment, initial int64, initialValues map[types.ItemID]int64) map[types.SiteID]map[types.ItemID]storage.Versioned {
	items := asgn.Items()
	// Size each table from the site's placement count: growing a table one
	// insert at a time rehashes it several times over.
	var copies types.SiteTable[int]
	for _, item := range items {
		ic, _ := asgn.Item(item)
		for _, cp := range ic.Copies {
			copies.Set(cp.Site, copies.Get(cp.Site)+1)
		}
	}
	sites := asgn.Sites()
	seeds := make(map[types.SiteID]map[types.ItemID]storage.Versioned, len(sites))
	for _, id := range sites {
		seeds[id] = make(map[types.ItemID]storage.Versioned, copies.Get(id))
	}
	for _, item := range items {
		ic, _ := asgn.Item(item)
		v := storage.Versioned{Value: initial, Version: 1}
		if x, ok := initialValues[item]; ok {
			v.Value = x
		}
		for _, cp := range ic.Copies {
			seeds[cp.Site][item] = v
		}
	}
	return seeds
}

// resumeFromLogs restores state after a full-cluster restart over persistent
// WALs: committed transactions re-apply their writesets (idempotent via
// version checks), unterminated voted transactions rejoin the termination
// protocol, and the transaction-ID counter advances past everything seen.
func (cl *Cluster) resumeFromLogs() {
	maxTxn := types.TxnID(0)
	for _, id := range cl.siteIDs {
		site := cl.sites.Get(id)
		recs, err := site.log.Records()
		if err != nil {
			continue
		}
		site.view.Apply(recs...)
		images := wal.Replay(recs)
		txns := make([]types.TxnID, 0, len(images))
		for txn := range images {
			txns = append(txns, txn)
		}
		sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
		for _, txn := range txns {
			img := images[txn]
			if txn > maxTxn {
				maxTxn = txn
			}
			if img.State == types.StateCommitted && len(img.Writeset) > 0 {
				site.store.ApplyWriteset(img.Writeset, uint64(txn)+1)
				cl.tracker.CommitApplied(id, txn, img.Writeset)
			}
		}
		site.k.Recover(recs)
	}
	cl.nextTxn = maxTxn
}

// Close releases file-backed WALs (no-op for in-memory logs).
func (cl *Cluster) Close() error {
	var first error
	for _, id := range cl.siteIDs {
		if gl, ok := cl.sites.Get(id).log.(*wal.GroupLog); ok {
			if err := gl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Scheduler exposes the simulation scheduler.
func (cl *Cluster) Scheduler() *sim.Scheduler { return cl.sched }

// T returns the timeout base (the longest end-to-end propagation delay).
func (cl *Cluster) T() sim.Duration { return cl.cfg.T }

// Network exposes the simulated network.
func (cl *Cluster) Network() *simnet.Network { return cl.net }

// Recorder exposes the trace recorder.
func (cl *Cluster) Recorder() *trace.Recorder { return cl.rec }

// Site returns a site by ID.
func (cl *Cluster) Site(id types.SiteID) *Site { return cl.sites.Get(id) }

// Sites returns all site IDs ascending.
func (cl *Cluster) Sites() []types.SiteID {
	out := make([]types.SiteID, len(cl.siteIDs))
	copy(out, cl.siteIDs)
	return out
}

// Spec returns the protocol under test.
func (cl *Cluster) Spec() core.Spec { return cl.cfg.Spec }

// Assignment returns the voting configuration.
func (cl *Cluster) Assignment() *voting.Assignment { return cl.cfg.Assignment }

func (cl *Cluster) send(from, to types.SiteID, m msg.Message) {
	cl.net.Send(from, to, m)
}

func (cl *Cluster) violationf(format string, args ...any) {
	cl.violations = append(cl.violations, fmt.Sprintf(format, args...))
}

// Violations returns atomicity violations observed so far (commit and abort
// of the same transaction). A correct protocol produces none; the 3PC
// baseline under partitioning is expected to produce some (Example 2), and
// the deliberately buggy participant variant reproduces Example 3.
func (cl *Cluster) Violations() []string {
	out := append([]string(nil), cl.violations...)
	// Cross-site check: some site committed while another aborted.
	perTxn := make(map[types.TxnID][2][]types.SiteID) // [committed, aborted]
	for _, id := range cl.siteIDs {
		k := cl.sites.Get(id).k
		for _, txn := range k.Terminated() {
			pair := perTxn[txn]
			if o, _ := k.Outcome(txn); o == types.OutcomeCommitted {
				pair[0] = append(pair[0], id)
			} else {
				pair[1] = append(pair[1], id)
			}
			perTxn[txn] = pair
		}
	}
	txns := make([]types.TxnID, 0, len(perTxn))
	for txn := range perTxn {
		txns = append(txns, txn)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
	for _, txn := range txns {
		pair := perTxn[txn]
		if len(pair[0]) > 0 && len(pair[1]) > 0 { // sites were visited ascending
			out = append(out, fmt.Sprintf("%s terminated inconsistently: committed at %v, aborted at %v", txn, pair[0], pair[1]))
		}
	}
	return out
}

// Begin starts a transaction at the coordinator site with the given
// writeset. The participant set is derived from the vote assignment. It
// returns the transaction ID; run the scheduler to make progress.
func (cl *Cluster) Begin(coord types.SiteID, ws types.Writeset) types.TxnID {
	cl.nextTxn++
	txn := cl.nextTxn
	site := cl.sites.Get(coord)
	if site == nil {
		panic(fmt.Sprintf("engine: unknown coordinator site %s", coord))
	}
	participants := cl.cfg.Assignment.Participants(ws.Items())
	ws = ws.Clone()
	cl.sched.At(cl.sched.Now(), func() {
		if cl.net.Down(coord) {
			return
		}
		// A transaction aborted at Begin has no coordinator to remember.
		if a := site.k.Begin(txn, ws, participants).Automaton(protocol.RoleCoordinator); a != nil {
			site.coords[txn] = a
		}
	})
	return txn
}

// Example3ViolatingSeed is a delay seed at which the Example 3 / Fig. 7
// configuration, run with the buggy buffer-crossing participant, lets site4
// acknowledge both concurrent coordinators and terminates inconsistently.
// The window for that double acknowledgement is one round trip, so few seeds
// hit it; TestExample3Sweep re-derives the set and checks this one is in it.
const Example3ViolatingSeed int64 = 19

// SetupInterrupted constructs, without running the commit protocol, the
// exact mid-protocol configuration the paper's examples start from: every
// site in states is a participant frozen in the given local state (the
// coordinator has crashed or is about to). Write locks are held by sites in
// W/PC/PA, and WAL records match the states. Termination is NOT triggered
// automatically; partition the network and call Kick, or let participant
// patience timers fire.
func (cl *Cluster) SetupInterrupted(coord types.SiteID, ws types.Writeset, states map[types.SiteID]types.State) types.TxnID {
	cl.nextTxn++
	txn := cl.nextTxn
	participants := make([]types.SiteID, 0, len(states))
	for id := range states {
		participants = append(participants, id)
	}
	sort.Slice(participants, func(i, j int) bool { return participants[i] < participants[j] })

	for _, id := range participants {
		st := states[id]
		site := cl.sites.Get(id)
		if site == nil {
			panic(fmt.Sprintf("engine: unknown site %s in SetupInterrupted", id))
		}
		c := site.k.Adopt(txn, ws.Clone(), participants, coord)

		img := &wal.TxnImage{
			Txn:          txn,
			State:        st,
			Coord:        coord,
			Participants: participants,
			Writeset:     ws.Clone(),
		}
		voted := wal.Record{Type: wal.RecVotedYes, Txn: txn, Coord: coord, Participants: participants, Writeset: ws}
		switch st {
		case types.StateInitial:
			// No records, no automaton: the site has not voted.
			continue
		case types.StateWait:
			site.append(voted)
		case types.StatePC:
			site.append(voted)
			site.append(wal.Record{Type: wal.RecPC, Txn: txn})
		case types.StatePA:
			site.append(voted)
			site.append(wal.Record{Type: wal.RecPA, Txn: txn})
		case types.StateCommitted:
			site.append(voted)
			site.k.Decide(txn, types.OutcomeCommitted)
			continue
		case types.StateAborted:
			site.k.Decide(txn, types.OutcomeAborted)
			continue
		}
		site.k.Resume(c, img)
	}
	return txn
}

// Kick resets the termination-round budget for txn at every up site and
// triggers a fresh termination attempt (used after healing a partition or
// recovering sites).
func (cl *Cluster) Kick(txn types.TxnID) {
	for _, id := range cl.siteIDs {
		k := cl.sites.Get(id).k
		if cl.net.Down(id) || !k.ResetTermination(txn) {
			continue
		}
		cl.sched.At(cl.sched.Now(), func() {
			if !cl.net.Down(id) {
				k.Campaign(txn)
			}
		})
	}
}

// KickAt schedules a Kick at virtual time t (use just after a scheduled
// heal or restart to retrigger termination with a fresh round budget).
func (cl *Cluster) KickAt(t sim.Time, txn types.TxnID) {
	cl.sched.At(t, func() { cl.Kick(txn) })
}

// Crash takes a site down immediately (volatile state lost, WAL kept).
func (cl *Cluster) Crash(id types.SiteID) {
	cl.net.Crash(id)
	cl.sites.Get(id).k.Crash()
	cl.rec.Annotate(cl.sched.Now(), id, "CRASH")
}

// CrashAt schedules a crash at virtual time t.
func (cl *Cluster) CrashAt(t sim.Time, id types.SiteID) {
	cl.sched.At(t, func() { cl.Crash(id) })
}

// Restart brings a crashed site back: the WAL is replayed, unterminated
// transactions rejoin the termination protocol, and anti-entropy repairs
// copies that missed committed writes while the site was down.
func (cl *Cluster) Restart(id types.SiteID) {
	cl.net.Recover(id)
	cl.rec.Annotate(cl.sched.Now(), id, "RESTART")
	recs, _ := cl.sites.Get(id).log.Records()
	cl.sites.Get(id).k.Recover(recs)
	cl.SyncSite(id)
}

// SyncSite triggers an anti-entropy round for one site's copies: it asks
// every peer replica for its current copy of each locally-held item some
// commit wrote, installing newer versions as the responses arrive.
func (cl *Cluster) SyncSite(id types.SiteID) {
	cl.pull(cl.tracker.RestartPulls(id, cl.sites.Get(id).store.Has))
}

// RestartAt schedules a restart at virtual time t.
func (cl *Cluster) RestartAt(t sim.Time, id types.SiteID) {
	cl.sched.At(t, func() { cl.Restart(id) })
}

// Partition splits the network now.
func (cl *Cluster) Partition(groups ...[]types.SiteID) {
	cl.net.Partition(groups...)
	cl.rec.Annotate(cl.sched.Now(), 0, "PARTITION %v", groups)
}

// PartitionAt schedules a partition at virtual time t.
func (cl *Cluster) PartitionAt(t sim.Time, groups ...[]types.SiteID) {
	cl.sched.At(t, func() { cl.Partition(groups...) })
}

// Heal reconnects the network now and starts the adaptive strategies'
// catch-up pass (voting.Tracker.HealPulls): every copy carrying a missing
// write, or outside its item's current majority basis, asks its peers for
// their current versions.
func (cl *Cluster) Heal() {
	cl.net.Heal()
	cl.rec.Annotate(cl.sched.Now(), 0, "HEAL")
	cl.pull(cl.tracker.HealPulls())
}

// HealAt schedules a heal at virtual time t.
func (cl *Cluster) HealAt(t sim.Time) {
	cl.sched.At(t, func() { cl.Heal() })
}

// Run drives the simulation to quiescence and returns the final time.
func (cl *Cluster) Run() sim.Time { return cl.sched.Run() }

// RunFor advances virtual time by d.
func (cl *Cluster) RunFor(d sim.Duration) sim.Time { return cl.sched.RunFor(d) }

// StateOf returns the local protocol state of txn at a site. The fast path
// reads the kernel (terminal outcome, or the participant automaton's state);
// otherwise the site's view answers: the state its WAL, the ground truth that
// survives crashes, folds to — a map lookup, not a replay of the log.
func (cl *Cluster) StateOf(id types.SiteID, txn types.TxnID) types.State {
	site := cl.sites.Get(id)
	if o, over := site.k.Outcome(txn); over {
		return o.StateEquivalent()
	}
	if c := site.k.Txn(txn); c != nil {
		if p, ok := c.Automaton(protocol.RoleParticipant).(interface{ State() types.State }); ok {
			return p.State()
		}
	}
	return site.view.State(txn)
}

// OutcomeAt returns what txn's fate is at one site: committed, aborted,
// blocked (voted yes, still holding locks, no decision), or unknown (never
// voted / not involved).
func (cl *Cluster) OutcomeAt(id types.SiteID, txn types.TxnID) types.Outcome {
	return cl.StateOf(id, txn).Outcome()
}

// Outcomes maps every site that participated in txn to its outcome.
func (cl *Cluster) Outcomes(txn types.TxnID) map[types.SiteID]types.Outcome {
	out := make(map[types.SiteID]types.Outcome)
	for _, id := range cl.siteIDs {
		if o := cl.OutcomeAt(id, txn); o != types.OutcomeUnknown {
			out[id] = o
		}
	}
	return out
}

// GroupOutcome aggregates txn's fate across a set of sites: committed if any
// committed, aborted if any aborted (a correct protocol never mixes the two;
// mixing is reported by Violations), blocked if any site is still blocked,
// otherwise unknown.
func (cl *Cluster) GroupOutcome(txn types.TxnID, group []types.SiteID) types.Outcome {
	anyBlocked := false
	for _, id := range group {
		switch cl.OutcomeAt(id, txn) {
		case types.OutcomeCommitted:
			return types.OutcomeCommitted
		case types.OutcomeAborted:
			return types.OutcomeAborted
		case types.OutcomeBlocked:
			anyBlocked = true
		}
	}
	if anyBlocked {
		return types.OutcomeBlocked
	}
	return types.OutcomeUnknown
}

// ItemLockedAt reports whether any transaction currently holds a lock on
// item at the given site. The hybrid churn engine uses it as a
// classification probe: a candidate for the analytic fast path must see
// every copy of its writeset unlocked, otherwise its votes are not the
// unanimous yes the arithmetic assumes and it is replayed instead.
func (cl *Cluster) ItemLockedAt(id types.SiteID, item types.ItemID) bool {
	return cl.sites.Get(id).locks.Locked(item)
}

// AnyLocks reports whether any site currently holds any lock. It is the
// cheap screen in front of per-item ItemLockedAt probes: one counter read
// per site instead of a hashed table lookup per (site, item) pair.
func (cl *Cluster) AnyLocks() bool {
	for _, id := range cl.siteIDs {
		if cl.sites.Get(id).locks.HeldCount() > 0 {
			return true
		}
	}
	return false
}

// FirstDecisionAt returns the earliest virtual time at which any site
// irrevocably terminated txn, and whether any site has.
func (cl *Cluster) FirstDecisionAt(txn types.TxnID) (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, id := range cl.siteIDs {
		at, ok := cl.sites.Get(id).decidedAt[txn]
		if ok && (!found || at < best) {
			best = at
			found = true
		}
	}
	return best, found
}

// AcksAtDecision reports how many PC-ACKs the commit coordinator hosted at
// the given site had collected when it decided to commit txn, and whether
// such a coordinator exists. A 2PC coordinator, which sends COMMIT on the
// last yes vote, reports 0.
func (cl *Cluster) AcksAtDecision(id types.SiteID, txn types.TxnID) (int, bool) {
	counter, ok := cl.sites.Get(id).coords[txn].(interface{ AcksAtDecision() int })
	if !ok {
		return 0, false
	}
	return counter.AcksAtDecision(), true
}
