// Hybrid analytic churn engine.
//
// The replay engine (study.go) simulates every transaction through the full
// discrete-event protocol stack. Most transactions, though, see a static
// world from submission until their decision has reached every site, and
// such a transaction's fate is pure arithmetic: every reachable participant
// acquires its locks and votes yes, the vote and ack round trips are fixed by
// the deterministic per-message delay model, and the decision follows the
// protocol's quorum rule. The hybrid engine classifies each arrival at
// submission time — analytic when nothing in its window can touch it,
// replayed in a shared fallback world otherwise — and produces transaction
// fates bit-identical to full replay.
//
// # Why the fates are exact
//
// Three properties carry the equivalence, each pinned by the differential
// suite in hybrid_test.go:
//
//  1. Delays are per-message, not per-run. simnet derives each propagation
//     delay from (seed, from, to, sendTime), so a world that simulates only a
//     subset of the traffic sees identical delays for every message it
//     shares with full replay, and the arithmetic here calls the same
//     worldNet.Delay.
//
//  2. Classification is conservative. Each arrival's plan computes, from the
//     arrival's epoch and the delay hash, the end of its footprint: one
//     delivery hop T after its decision, where the decision instant is the
//     vote timeout arrival+2T when the vote phase aborts and otherwise the
//     last PC-ACK's arrival, capped at the ack deadline tAllVotes+2T (2PC
//     decides earlier, at tAllVotes). The hop is added to the bound, never
//     hashed at it: worldNet.Delay keys on the send time, so a delay
//     computed at a bound says nothing about the real, earlier send. Every
//     VOTE-REQ is delivered by arrival+T ≤ end, and after end the
//     transaction holds no lock and has no frame in flight that an
//     automaton acts on. A transaction is analytic only if (a) no partition
//     or heal lands in its window (arrival, end], and no crash or restart
//     there is visible to it (below); (b) it is alone in its conflict
//     cluster — no other transaction writing a common item arrives before
//     the earlier writer's end, which bounds every analytic lock lifetime;
//     (c) no copy of its writeset is locked in the fallback world at
//     arrival time — long-blocked replayed transactions hold locks past any
//     plan end, and this live probe catches them; and (d) the fold of the
//     protocol's compiled rule confirms the all-participants-prepared tally
//     commits.
//
//     A crash or restart is invisible to the transaction when it hits a
//     site that is neither its coordinator nor a participant, a participant
//     its VOTE-REQ could not reach at arrival, or a site strictly after the
//     last delivery of this column's decision to it. The unreached
//     participant was down, or cut off by the arrival's partition, which no
//     regrouping changes inside the window: simnet dropped the VOTE-REQ at
//     send, so the site never holds a context for the transaction, and an
//     ABORT that reaches it after a restart is a no-op (Kernel.Handle →
//     Decide returns at a nil context). The last delivery is a
//     participant's own, and for the coordinator the last to any reachable
//     participant, since simnet drops a crashed sender's in-flight frames.
//     After it the site has forced the decision and released its locks, no
//     later frame of the transaction is acted on there, and a restart finds
//     the decision in its log: Recover neither asks nor locks anything for
//     it. Every other crash or restart lands while the site still waits for
//     the decision — Skeen's uncertainty period, where termination runs —
//     and replays. So does the measure-zero ack-timeout tie on a
//     terminate-on-timeout protocol whose ack deadline falls before the
//     horizon. A replayed transaction past its own end can take a lock
//     again only through Kernel.Resume at a restart, at a site holding a
//     copy it writes: if a later arrival writes that item, the site is one
//     of its participants, so the restart is visible to it unless the site
//     holds none of its locks — one its VOTE-REQ never reached, or one its
//     decision has already released.
//
//     The horizon cuts a window that overhangs it, since replay reads every
//     fate at the horizon. An analytic arrival is decided if its first
//     decision record lands at or before the horizon. Otherwise it is
//     pending, as finishWorld reads replay: Blocked if some reachable
//     participant's VOTE-REQ landed by then (that site voted yes and
//     waits), Unresolved if none did, and horizon − arrival either way
//     goes to PendingNS. A terminate-on-timeout column whose ack deadline
//     falls after the horizon is pending the same way: replay stops before
//     its termination starts.
//
//  3. Analytic and replayed transactions cannot interact. Clustering keeps
//     their lock footprints disjoint, message traffic carries no congestion,
//     and strategy state (adaptive demotion, dynamic vote reassignment)
//     never feeds a protocol decision — an analytic commit reaches all
//     copies, which makes its strategy transition a no-op in replay too.
//
// # Documented approximations
//
// Fates (committed/aborted/blocked/unresolved/rejected) and violations are
// exact. Two auxiliary families are not: availability probes are computed
// from the static vote tables over the epoch's up/connected state, so they
// do not see transient lock holds or adaptive/dynamic strategy state; and
// the latency of an analytic transaction reproduces the replay value except
// in measure-zero equal-nanosecond tie cases. The differential suite
// therefore pins counts and violations, not probe counters or latencies.
package churn

import (
	"cmp"
	"slices"

	"qcommit/internal/core"
	"qcommit/internal/engine"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/sim"
	"qcommit/internal/types"
)

// conflictClusters flags arrivals whose write locks could interact: a later
// arrival is linked to an earlier writer of a common item when it arrives
// no later than that writer's plan end (the last instant the writer can
// hold a lock), the links close transitively (a chain of overlapping
// writers is one cluster), and every member of a cluster of two or more is
// barred from the analytic path so that lock contention is always
// replayed, never modeled. Per item only the writer with the largest end
// is kept: any earlier writer a later arrival overlaps is already in that
// writer's cluster. A rejected arrival begins nothing and links nothing.
func conflictClusters(arrivals []arrival, plans []arrivalPlan) []bool {
	parent := make([]int, len(arrivals))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	type lastWrite struct {
		idx int
		end sim.Time
	}
	last := make(map[types.ItemID]lastWrite, 64)
	for i := range arrivals {
		a, p := &arrivals[i], &plans[i]
		if p.coord == 0 {
			continue
		}
		for _, u := range a.Writeset {
			lw, ok := last[u.Item]
			if ok && a.At <= lw.end {
				union(i, lw.idx)
			}
			if !ok || p.end > lw.end {
				last[u.Item] = lastWrite{i, p.end}
			}
		}
	}
	size := make([]int, len(arrivals))
	for i := range arrivals {
		size[find(i)]++
	}
	multi := make([]bool, len(arrivals))
	for i := range arrivals {
		multi[i] = size[find(i)] > 1
	}
	return multi
}

// hybridRun is the per-(run, protocol) state of one hybrid evaluation,
// including the scratch reused across arrivals.
type hybridRun struct {
	sc     *script
	params Params
	seed   int64
	// spec is the protocol column. Its rule is the analytic mirror of the
	// coordinator when every participant is reachable, lock-free and
	// therefore votes yes: the rule's fold sanity-gates the commit over the
	// all-participants-prepared tally, its ack quorum ends the walk over the
	// PC-ack arrivals, and it says whether the coordinator prepares at all
	// (2PC commits on the last yes vote) and whether an expired ack window
	// commits (3PC) or terminates — which the analytic path refuses to model
	// before the horizon and hands to replay.
	spec core.Spec

	// world is the shared fallback replay world — the same cluster replay
	// would build, from newWorld — created lazily at the first replayed
	// transaction. worldTxn[i] is arrival i's transaction ID there (0 =
	// analytic or rejected).
	world    *engine.Cluster
	worldTxn []types.TxnID

	// scratch
	acked quorumcalc.Set
	tally quorumcalc.Tally
	// touch[k] is when the column's decision reaches the plan's reach[k].
	touch []sim.Time
}

// ackArrival is a PC-ACK reaching the coordinator from participant i.
type ackArrival struct {
	at   sim.Time
	site types.SiteID
	i    int
}

// arrivalPlan is the protocol-independent half of classifying one arrival,
// computed once per script and shared by every protocol column: the
// availability probes, the coordinator reroute, the window's fault events,
// and the vote/ack round-trip arithmetic (all of which depend only on the
// epochs and the per-message delay hash), and the transaction's quorum
// frame. What remains per protocol is the live lock probe against that
// column's fallback world, the rule-table gate, the ack-quorum walk, and
// which of the window's crashes and restarts that column's decision
// deliveries leave invisible.
type arrivalPlan struct {
	// coord is the effective coordinator after rerouting; 0 means every
	// participant was down and the submission is rejected.
	coord   types.SiteID
	coordIn bool
	// end is the last instant at which, in a static world, the
	// transaction can hold a lock or have a protocol frame in flight: one
	// hop T past its decision bound (see "Why the fates are exact").
	end sim.Time
	// faults are the script's events in the window (arrival, min(end,
	// horizon)], and fixedLayout reports that none of them is a partition
	// or a heal; only such a plan can be analytic.
	faults      []Event
	fixedLayout bool
	// allReach reports every participant connected to the coordinator;
	// voteAbort that the last vote round trip loses to the 2T timer.
	allReach  bool
	voteAbort bool
	reach     []types.SiteID
	// frame is the transaction compiled for its quorums, shared by every
	// protocol column; only a fixedLayout plan has one.
	frame quorumcalc.Frame
	// probeRead/probeWrite are the per-arrival availability probe tallies
	// (checks = len(Writeset)).
	probeRead, probeWrite int
	// voteDeadline is when the vote timer fires; tAllVotes, ackDeadline and
	// acks feed the three-phase ack walk.
	voteDeadline sim.Time
	tAllVotes    sim.Time
	ackDeadline  sim.Time
	acks         []ackArrival
}

// buildHybridPlans computes the arrival plans for one script. The epoch
// cursor mirrors executeRunHybrid's arrival loop; the event cursor lo is the
// first event after the arrival.
func buildHybridPlans(sc *script, seed int64, epochs []Epoch, T sim.Duration, horizon sim.Time) []arrivalPlan {
	plans := make([]arrivalPlan, len(sc.arrivals))
	ei, lo := 0, 0
	for i := range sc.arrivals {
		a := &sc.arrivals[i]
		for epochs[ei].End <= a.At {
			ei++
		}
		for lo < len(sc.events) && sc.events[lo].At <= a.At {
			lo++
		}
		ep := &epochs[ei]
		p := &plans[i]

		// Availability probes from the preferred coordinator, mirroring
		// executeRun's sampling points. These are the static-table
		// approximation documented in the package comment.
		for _, u := range a.Writeset {
			if ic, ok := sc.asgn.Item(u.Item); ok {
				votes := 0
				for _, cp := range ic.Copies {
					if ep.Connected(a.Coord, cp.Site) {
						votes += cp.Votes
					}
				}
				if votes >= ic.R {
					p.probeRead++
				}
				if votes >= ic.W {
					p.probeWrite++
				}
			}
		}

		coord := a.coordinator(ep.Up)
		if coord == 0 {
			continue
		}
		p.coord = coord

		// Reachable participants: up and connected to the coordinator in
		// the arrival's epoch. Everyone reachable acquires locks and votes
		// yes; everyone else never hears the VOTE-REQ. When all are
		// reachable the plan shares the arrival's participant list.
		reachable := 0
		for _, s := range a.Participants {
			if s == coord {
				p.coordIn = true
			}
			if ep.Connected(coord, s) {
				reachable++
			}
		}
		p.reach = a.Participants
		if reachable < len(a.Participants) {
			p.reach = make([]types.SiteID, 0, reachable)
			for _, s := range a.Participants {
				if ep.Connected(coord, s) {
					p.reach = append(p.reach, s)
				}
			}
		}

		// The vote timer was armed at submission, so the last vote must
		// arrive strictly before arrival+2T (the timer wins an exact tie).
		p.voteDeadline = a.At.Add(2 * T)
		decide := p.voteDeadline
		p.allReach = len(p.reach) == len(a.Participants)
		if p.allReach {
			tAllVotes := a.At
			for _, s := range p.reach {
				d1 := worldNet.Delay(seed, coord, s, a.At)
				t1 := a.At.Add(d1)
				t2 := t1.Add(worldNet.Delay(seed, s, coord, t1))
				if t2 > tAllVotes {
					tAllVotes = t2
				}
			}
			p.tAllVotes = tAllVotes
			p.voteAbort = tAllVotes >= p.voteDeadline
		}
		if p.allReach && !p.voteAbort {
			// PC/ack round trips for the three-phase protocols, sorted by
			// (arrival time, site) the way the coordinator observes them.
			p.ackDeadline = p.tAllVotes.Add(2 * T)
			p.acks = make([]ackArrival, 0, len(p.reach))
			for i, s := range p.reach { // every participant, in order
				d3 := worldNet.Delay(seed, coord, s, p.tAllVotes)
				t3 := p.tAllVotes.Add(d3)
				t4 := t3.Add(worldNet.Delay(seed, s, coord, t3))
				p.acks = append(p.acks, ackArrival{at: t4, site: s, i: i})
			}
			slices.SortFunc(p.acks, func(x, y ackArrival) int {
				return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.site, y.site))
			})
			decide = min(p.acks[len(p.acks)-1].at, p.ackDeadline)
		}
		// One full hop past the decision bound, never a delay hashed at the
		// bound (see "Why the fates are exact").
		p.end = decide.Add(T)

		// The window's events: an event at the arrival instant is already in
		// its epoch, and replay applies one at the window's last instant
		// before that instant's deliveries.
		hi, last := lo, min(p.end, horizon)
		p.fixedLayout = true
		for ; hi < len(sc.events) && sc.events[hi].At <= last; hi++ {
			if k := sc.events[hi].Kind; k == EventPartition || k == EventHeal {
				p.fixedLayout = false
			}
		}
		p.faults = sc.events[lo:hi:hi]
		if p.fixedLayout {
			p.frame.Init(sc.asgn, a.Writeset, a.Participants)
		}
	}
	return plans
}

// executeRunHybrid evaluates one script under one protocol with the hybrid
// engine. It mirrors executeRun's accounting exactly; only the evaluation of
// individual transactions differs.
func executeRunHybrid(sc *script, params Params, seed int64, spec core.Spec) (runStats, error) {
	horizon := sim.Time(params.Horizon)
	T := worldNet.MaxDelayOrDefault() // the engine's timeout base
	if sc.hybridPlans == nil || sc.hybridSeed != seed {
		sc.hybridPlans = buildHybridPlans(sc, seed, sc.epochs(horizon), T, horizon)
		sc.hybridMulti = conflictClusters(sc.arrivals, sc.hybridPlans)
		sc.hybridSeed = seed
	}
	h := &hybridRun{
		sc:       sc,
		params:   params,
		seed:     seed,
		spec:     spec,
		worldTxn: make([]types.TxnID, len(sc.arrivals)),
	}

	var st runStats
	for i := range sc.arrivals {
		a := &sc.arrivals[i]
		p := &sc.hybridPlans[i]

		st.counts.AccessChecks += len(a.Writeset)
		st.counts.ReadAvailable += p.probeRead
		st.counts.WriteAvailable += p.probeWrite

		if p.coord == 0 {
			st.counts.Rejected++
			continue
		}
		st.counts.Submitted++
		st.counts.PostSubmitNS += int64(horizon - a.At)

		// Keep the fallback world's clock at the arrival front so lock
		// probes and submissions happen at replay-identical times.
		if h.world != nil {
			h.world.Scheduler().RunUntil(a.At)
		}

		if o, decidedAt, ok := h.classify(i, a, p); ok {
			st.analytic++
			switch o {
			case types.OutcomeCommitted, types.OutcomeAborted:
				st.decided(sim.Duration(decidedAt-a.At), o == types.OutcomeCommitted)
			default:
				st.undecided(sim.Duration(horizon-a.At), o == types.OutcomeBlocked)
			}
			continue
		}

		// Fallback: replay this transaction in the shared world.
		if h.world == nil {
			h.ensureWorld()
			h.world.Scheduler().RunUntil(a.At)
		}
		h.worldTxn[i] = h.world.Begin(p.coord, a.Writeset)
	}

	if h.world != nil {
		if err := finishWorld(h.world, sc, params, seed, spec, h.worldTxn, &st); err != nil {
			return runStats{}, err
		}
	}
	return st, nil
}

// ensureWorld builds the shared fallback world: exactly the cluster replay
// builds (newWorld), with the full fault timeline and kick schedule, but with
// only the replayed transactions submitted into it.
func (h *hybridRun) ensureWorld() {
	h.world = newWorld(h.sc, h.params, h.seed, h.spec, h.worldTxn, nil)
}

// classify decides arrival i analytically if it qualifies, and returns its
// fate as finishWorld reads replay's at the horizon: OutcomeCommitted or
// OutcomeAborted with the first decision record's instant, OutcomeBlocked,
// or OutcomeUnknown for Unresolved. It returns ok=false to send the
// transaction to the fallback world. The plan supplies the
// protocol-independent half (the window's events, reachability, vote and
// ack arithmetic); what remains here is everything the protocol column
// owns: the live lock probe against its fallback world, the decision, and
// whether a crash or restart in the window lands before that decision is
// done with its site.
func (h *hybridRun) classify(i int, a *arrival, p *arrivalPlan) (o types.Outcome, decidedAt sim.Time, ok bool) {
	if h.sc.hybridMulti[i] || !p.fixedLayout {
		return 0, 0, false
	}

	// Live lock probe: a held lock on any copy a reachable participant
	// would try to X-lock means the yes-vote assumption is wrong. Only
	// long-blocked replayed transactions can hold locks here (anything
	// closer shares a conflict cluster), and only the world knows them. A
	// site locks only its own copies, so the probe walks each written
	// item's copies in the frame.
	f := &p.frame
	if h.world != nil && h.world.AnyLocks() {
		for k := 0; k < f.Items(); k++ {
			x, copies := f.Item(k)
			for _, c := range copies {
				s := f.Site(int(c.At))
				if (p.allReach || slices.Contains(p.reach, s)) && h.world.ItemLockedAt(s, x) {
					return 0, 0, false
				}
			}
		}
	}

	tDecide, o, ok := h.decision(a, p)
	if !ok {
		return 0, 0, false
	}
	// A crash or restart is visible while the decision has yet to reach
	// its site; a participant outside reach never had the transaction.
	first, last := h.deliveries(p, tDecide)
	for _, ev := range p.faults {
		if ev.Site == p.coord {
			if ev.At <= last {
				return 0, 0, false
			}
		} else if k := slices.Index(p.reach, ev.Site); k >= 0 && ev.At <= h.touch[k] {
			return 0, 0, false
		}
	}

	horizon := sim.Time(h.params.Horizon)
	if first <= horizon {
		return o, first, true
	}
	for _, s := range p.reach {
		if a.At.Add(worldNet.Delay(h.seed, p.coord, s, a.At)) <= horizon {
			return types.OutcomeBlocked, 0, true // s voted yes and waits
		}
	}
	return types.OutcomeUnknown, 0, true
}

// decision returns when the column's coordinator decides, and what;
// ok=false hands the transaction to replay.
func (h *hybridRun) decision(a *arrival, p *arrivalPlan) (at sim.Time, o types.Outcome, ok bool) {
	if !p.allReach || p.voteAbort {
		// Missing or too-slow votes: the coordinator aborts on the vote
		// timeout.
		return p.voteDeadline, types.OutcomeAborted, true
	}
	rule := h.spec.Rule(a.Participants)
	if !rule.Prepares() {
		return p.tAllVotes, types.OutcomeCommitted, true
	}

	// Three-phase protocols: sanity-gate the commit through the fold of the
	// protocol's rule table over the all-participants-prepared tally, then
	// walk the PC-ack arrivals until its ack quorum is reached — one bit
	// more per ack, since the quorum is monotone.
	q := rule.Over(&p.frame)
	h.tally.Reset() // nothing to renumber
	h.tally.Bind(&p.frame)
	h.tally.AddAll(types.StatePC)
	if q.Outcome(&h.tally) != types.OutcomeCommitted {
		return 0, 0, false
	}

	h.acked.Clear()
	for _, ack := range p.acks {
		if h.acked.Add(ack.i); !q.Ack(h.acked) {
			continue
		}
		if ack.at < p.ackDeadline {
			return ack.at, types.OutcomeCommitted, true
		}
		break
	}
	if q.CommitsOnAckTimeout() {
		// 3PC commits when the ack window expires.
		return p.ackDeadline, types.OutcomeCommitted, true
	}
	// A terminate-on-ack-timeout protocol enters its termination machinery
	// at the deadline. Before the horizon, replay it instead of modeling
	// that; past it, replay stops first and reads the transaction pending,
	// as classify does of any decision made after the horizon.
	if p.ackDeadline > sim.Time(h.params.Horizon) {
		return p.ackDeadline, types.OutcomeUnknown, true
	}
	return 0, 0, false
}

// deliveries hashes the decision sent at tDecide to every reachable
// participant once, into h.touch (parallel to p.reach), and returns the two
// instants the column reads from them: first, the earliest decision record
// (engine.Cluster.FirstDecisionAt) — a coordinator outside the participant
// set records the decision the instant it is made, otherwise the fastest
// delivery (the coordinator's own site included) is first — and last, after
// which a crash or restart of the coordinator is invisible.
func (h *hybridRun) deliveries(p *arrivalPlan, tDecide sim.Time) (first, last sim.Time) {
	h.touch = h.touch[:0]
	first, last = tDecide, tDecide
	for k, s := range p.reach {
		at := tDecide.Add(worldNet.Delay(h.seed, p.coord, s, tDecide))
		h.touch = append(h.touch, at)
		if p.coordIn && (k == 0 || at < first) {
			first = at
		}
		last = max(last, at)
	}
	return first, last
}
