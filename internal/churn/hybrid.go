// Hybrid analytic churn engine.
//
// The replay engine (study.go) simulates every transaction through the full
// discrete-event protocol stack. Between fault events, though, the world is
// static, and a transaction whose entire commit window falls inside one such
// epoch has a fate that is pure arithmetic: every reachable participant
// acquires its locks and votes yes, the vote and ack round trips are fixed by
// the deterministic per-message delay model, and the decision follows the
// protocol's quorum rule. The hybrid engine classifies each arrival at
// submission time — analytic when the window is provably quiet, replayed in a
// shared fallback world otherwise — and produces transaction fates
// bit-identical to full replay.
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
//  2. Classification is conservative. Each arrival's plan computes, from the
//     epoch's static world and the delay hash, the end of its footprint:
//     one delivery hop T after its decision, where the decision instant is
//     the vote timeout arrival+2T when the vote phase aborts and otherwise
//     the last PC-ACK's arrival, capped at the ack deadline tAllVotes+2T
//     (2PC decides earlier, at tAllVotes). The hop is added to the bound,
//     never hashed at it: worldNet.Delay keys on the send time, so a delay
//     computed at a bound says nothing about the real, earlier send. Every
//     VOTE-REQ is delivered by arrival+T ≤ end, and after end the
//     transaction holds no lock and has no frame in flight that an
//     automaton acts on. A transaction is analytic only if (a) its commit
//     window [arrival, end] ends before the horizon and sees a static world
//     — no partition or heal, and no crash or restart of its coordinator or
//     a participant, anywhere in (arrival, end]; (b) it is alone in its
//     conflict cluster — no other transaction writing a common item arrives
//     before the earlier writer's end, which bounds every analytic lock
//     lifetime; (c) no copy of its writeset is locked in the fallback world
//     at arrival time — long-blocked replayed transactions hold locks past
//     any plan end, and this live probe catches them; and (d) the fold of
//     the protocol's compiled rule confirms the all-participants-prepared
//     tally commits. Anything else — including the measure-zero ack-timeout
//     tie on a terminate-on-timeout protocol — falls back to replay. A
//     replayed transaction past its own end can take a lock again only
//     through Kernel.Resume at a restart, and that restart is an event at a
//     site holding a copy it writes: if a later arrival writes that item,
//     the site is one of its participants, so (a) refuses its window.
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
	"sort"

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
	// and hands to replay.
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
}

// ackArrival is a PC-ACK reaching the coordinator from participant i.
type ackArrival struct {
	at   sim.Time
	site types.SiteID
	i    int
}

// arrivalPlan is the protocol-independent half of classifying one arrival,
// computed once per script and shared by every protocol column: the
// availability probes, the coordinator reroute, the quiet-window test, and
// the vote/ack round-trip arithmetic (all of which depend only on the
// epochs and the per-message delay hash), and the transaction's quorum
// frame. What remains per protocol is the live lock probe against that
// column's fallback world, the rule-table gate, and the ack-quorum walk.
type arrivalPlan struct {
	// coord is the effective coordinator after rerouting; 0 means every
	// participant was down and the submission is rejected.
	coord   types.SiteID
	coordIn bool
	// end is the last instant at which, in a static world, the
	// transaction can hold a lock or have a protocol frame in flight: one
	// hop T past its decision bound (see "Why the fates are exact").
	end sim.Time
	// windowOK reports that the commit window [arrival, end] sees a static
	// world (fits the arrival's epoch, or every event in it is irrelevant
	// to the transaction per windowQuiet) and ends before the horizon.
	windowOK bool
	// allReach reports every participant connected to the coordinator;
	// voteAbort that the last vote round trip loses to the 2T timer.
	allReach  bool
	voteAbort bool
	reach     []types.SiteID
	// frame is the transaction compiled for its quorums, shared by every
	// protocol column; only a windowOK plan, the only kind classify can
	// admit, has one.
	frame quorumcalc.Frame
	// probeRead/probeWrite are the per-arrival availability probe tallies
	// (checks = len(Writeset)).
	probeRead, probeWrite int
	// abortAt/commitAt are the replay-visible first-decision times of the
	// vote-phase abort and the 2PC commit; tAllVotes and ackDeadline feed
	// the three-phase ack walk over acks.
	abortAt     sim.Time
	commitAt    sim.Time
	tAllVotes   sim.Time
	ackDeadline sim.Time
	acks        []ackArrival
}

// buildHybridPlans computes the arrival plans for one script. The epoch
// cursor mirrors executeRunHybrid's arrival loop.
func buildHybridPlans(sc *script, seed int64, epochs []Epoch, T sim.Duration, horizon sim.Time) []arrivalPlan {
	plans := make([]arrivalPlan, len(sc.arrivals))
	ei := 0
	for i := range sc.arrivals {
		a := &sc.arrivals[i]
		for epochs[ei].End <= a.At {
			ei++
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
		voteDeadline := a.At.Add(2 * T)
		decide := voteDeadline
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
			p.voteAbort = tAllVotes >= voteDeadline
		}
		if p.allReach && !p.voteAbort {
			p.commitAt = firstDecisionTime(seed, coord, p.coordIn, p.reach, p.tAllVotes)

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
		} else {
			p.abortAt = firstDecisionTime(seed, coord, p.coordIn, p.reach, voteDeadline)
		}
		// One full hop past the decision bound, never a delay hashed at the
		// bound (see "Why the fates are exact").
		p.end = decide.Add(T)
		p.windowOK = p.end+1 <= horizon &&
			(ep.Contains(a.At, p.end+1) || windowQuiet(sc, a, coord, p.end))
		if p.windowOK {
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

		if committed, decidedAt, ok := h.classify(i, a, p); ok {
			st.analytic++
			st.decided(sim.Duration(decidedAt-a.At), committed)
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

// classify decides arrival i analytically if it qualifies. It returns
// ok=false to send the transaction to the fallback world. The plan supplies
// the protocol-independent half (window quietness, reachability, vote and
// ack arithmetic); what remains here is everything the protocol column owns:
// the live lock probe against its fallback world, the rule-table gate, and
// the ack-quorum walk.
func (h *hybridRun) classify(i int, a *arrival, p *arrivalPlan) (committed bool, decidedAt sim.Time, ok bool) {
	if h.sc.hybridMulti[i] || !p.windowOK {
		return false, 0, false
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
					return false, 0, false
				}
			}
		}
	}

	if !p.allReach || p.voteAbort {
		// Missing or too-slow votes: the coordinator aborts on the vote
		// timeout.
		return false, p.abortAt, true
	}
	rule := h.spec.Rule(a.Participants)
	if !rule.Prepares() {
		return true, p.commitAt, true
	}

	// Three-phase protocols: sanity-gate the commit through the fold of the
	// protocol's rule table over the all-participants-prepared tally, then
	// walk the PC-ack arrivals until its ack quorum is reached — one bit
	// more per ack, since the quorum is monotone.
	q := rule.Over(f)
	h.tally.Reset() // nothing to renumber
	h.tally.Bind(f)
	h.tally.AddAll(types.StatePC)
	if q.Outcome(&h.tally) != types.OutcomeCommitted {
		return false, 0, false
	}

	h.acked.Clear()
	for _, ack := range p.acks {
		if h.acked.Add(ack.i); !q.Ack(h.acked) {
			continue
		}
		if ack.at < p.ackDeadline {
			return true, firstDecisionTime(h.seed, p.coord, p.coordIn, p.reach, ack.at), true
		}
		break
	}
	if q.CommitsOnAckTimeout() {
		// 3PC commits when the ack window expires.
		return true, firstDecisionTime(h.seed, p.coord, p.coordIn, p.reach, p.ackDeadline), true
	}
	// A terminate-on-ack-timeout protocol would enter its termination
	// machinery here; replay it instead of modeling that.
	return false, 0, false
}

// windowQuiet reports whether every fault event inside the commit window
// (arrival, end] is invisible to the transaction: a crash or restart of a
// site that is neither its (effective) coordinator nor one of its
// participants. All protocol traffic flows between the coordinator and the
// participants, the per-message delay hash is independent of unrelated
// traffic, and an unrelated site by definition holds no copy of a written
// item — so such an event cannot change the transaction's fate or timing.
// Partition changes regroup every site and always count as visible. Events
// at the arrival instant are already folded into the arrival's epoch; an
// event at exactly the window end still counts, since replay applies it
// before same-instant message deliveries.
//
// The caller separately refuses a window overhanging the horizon: replay
// freezes the world mid-protocol there, leaving a transaction non-terminal
// (Blocked) even when the arithmetic says its decision lands before the
// cut — the decision only becomes terminal when its delivery does.
func windowQuiet(sc *script, a *arrival, coord types.SiteID, end sim.Time) bool {
	evs := sc.events
	i := sort.Search(len(evs), func(i int) bool { return evs[i].At > a.At })
	for ; i < len(evs) && evs[i].At <= end; i++ {
		switch evs[i].Kind {
		case EventPartition, EventHeal:
			return false
		default:
			if evs[i].Site == coord || slices.Contains(a.Participants, evs[i].Site) {
				return false
			}
		}
	}
	return true
}

// firstDecisionTime mirrors engine.Cluster.FirstDecisionAt for an analytic
// transaction: a coordinator outside the participant set records the
// decision locally the instant it is made, otherwise the earliest decision
// record is the fastest delivery of the decision message to a reachable
// participant (the coordinator's own site included).
func firstDecisionTime(seed int64, coord types.SiteID, coordIn bool, reach []types.SiteID, tDecide sim.Time) sim.Time {
	if !coordIn {
		return tDecide
	}
	first := sim.Time(0)
	for i, s := range reach {
		at := tDecide.Add(worldNet.Delay(seed, coord, s, tDecide))
		if i == 0 || at < first {
			first = at
		}
	}
	return first
}
