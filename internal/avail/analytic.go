package avail

import (
	"qcommit/internal/core"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// analyticEval computes Monte Carlo tallies for a scenario by pure quorum
// arithmetic, with no discrete-event simulation. It mirrors exactly what
// Replay + Analyze + Tally observe after the engine quiesces:
//
//   - the only down site is the crashed coordinator, so every other site of
//     a partition group is "up" and answers the termination poll;
//   - a group's termination outcome is a pure function of its initial state
//     tally (package quorumcalc);
//   - write locks are held by participants cut in W/PC/PA and released only
//     when the group's termination attempt commits or aborts;
//   - an (item, group) pair is readable/writable when the group's unlocked
//     replica votes reach r(x)/w(x);
//   - one atomicity violation is reported per trial whose groups terminate
//     inconsistently (some commit, some abort — 3PC's Example 2 behaviour);
//     the stores themselves stay consistent because only committed groups
//     apply the writeset.
//
// The group structure, replica placement and lock footprint are protocol
// independent, so they are computed once per scenario and shared across all
// deciders — work the replay engine repeats for every protocol column.
//
// The struct is scratch state reused across trials; it is not safe for
// concurrent use.
type analyticEval struct {
	tallies   []quorumcalc.Tally
	upCount   []int
	outcomes  []types.Outcome // [decider*numGroups + group]
	siteGroup []int32         // site ID → group index, -1 when down/absent
	holdsCopy []bool          // site ID → holds ≥1 replica (exists in the engine)
	present   []int           // per group: replica votes of the current item
	locked    []int           // per group: votes of those replicas still locked
}

func newAnalyticEval() *analyticEval { return &analyticEval{} }

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// run evaluates one scenario under every rule, each compiled over frame (the
// scenario's transaction), adding the per-protocol tallies into results (one
// MCResult per rule, as accumulate does for replay).
func (e *analyticEval) run(sc Scenario, frame *quorumcalc.Frame, rules []quorumcalc.Quorums, results []MCResult) {
	// One tally slot per listed partition group, plus one for the implicit
	// residual group: simnet lumps sites not listed in any group into a
	// final group together, so replica-holding sites omitted from
	// sc.Partition still form a (connected) population in replay.
	ng := len(sc.Partition) + 1
	if cap(e.tallies) < ng {
		e.tallies = make([]quorumcalc.Tally, ng)
	}
	e.tallies = e.tallies[:ng]
	e.upCount = growInts(e.upCount, ng)
	e.present = growInts(e.present, ng)
	e.locked = growInts(e.locked, ng)
	if n := ng * len(rules); cap(e.outcomes) < n {
		e.outcomes = make([]types.Outcome, n)
	} else {
		e.outcomes = e.outcomes[:n]
	}

	// Map sites to groups; the crashed coordinator maps nowhere (down).
	maxSite := types.SiteID(0)
	for _, group := range sc.Partition {
		for _, s := range group {
			if s > maxSite {
				maxSite = s
			}
		}
	}
	sc.Assignment.ForEachItem(func(ic voting.ItemConfig) {
		for _, cp := range ic.Copies {
			if cp.Site > maxSite {
				maxSite = cp.Site
			}
		}
	})
	if cap(e.siteGroup) < int(maxSite)+1 {
		e.siteGroup = make([]int32, int(maxSite)+1)
		e.holdsCopy = make([]bool, int(maxSite)+1)
	}
	e.siteGroup = e.siteGroup[:int(maxSite)+1]
	e.holdsCopy = e.holdsCopy[:int(maxSite)+1]
	for i := range e.siteGroup {
		e.siteGroup[i] = -1
		e.holdsCopy[i] = false
	}

	// The engine instantiates only the sites the assignment places replicas
	// at; a replica-less site is invisible to Analyze, so it must not count
	// toward a group's up-site population here either.
	sc.Assignment.ForEachItem(func(ic voting.ItemConfig) {
		for _, cp := range ic.Copies {
			e.holdsCopy[cp.Site] = true
		}
	})

	// Per-group state tally over up participants — the exact response set a
	// termination coordinator's phase-1 poll collects in that group.
	addSite := func(t *quorumcalc.Tally, gi int, s types.SiteID) {
		e.siteGroup[s] = int32(gi)
		if st, ok := sc.States[s]; ok {
			t.Add(s, st)
		}
	}
	for gi, group := range sc.Partition {
		t := &e.tallies[gi]
		t.Reset()
		t.Bind(frame)
		up := 0
		for _, s := range group {
			if s == sc.Coord || !e.holdsCopy[s] {
				continue
			}
			addSite(t, gi, s)
			up++
		}
		e.upCount[gi] = up
	}
	// The residual group (replica-holding sites listed in no group) is the
	// last slot; for sweep-generated scenarios the partition covers every
	// site and the slot stays empty.
	rt := &e.tallies[ng-1]
	rt.Reset()
	rt.Bind(frame)
	up := 0
	for s := types.SiteID(1); s <= maxSite; s++ {
		if s == sc.Coord || !e.holdsCopy[s] || e.siteGroup[s] >= 0 {
			continue
		}
		addSite(rt, ng-1, s)
		up++
	}
	e.upCount[ng-1] = up

	// Termination outcome per (decider, group), plus the trial-level
	// counters Tally derives from group outcomes.
	for d := range rules {
		res := &results[d]
		anyCommit, anyAbort := false, false
		for gi := 0; gi < ng; gi++ {
			if e.upCount[gi] == 0 {
				e.outcomes[d*ng+gi] = types.OutcomeUnknown
				continue
			}
			out := rules[d].Outcome(&e.tallies[gi])
			e.outcomes[d*ng+gi] = out
			res.Counts.Groups++
			switch out {
			case types.OutcomeCommitted:
				res.Counts.GroupsWithParticipants++
				res.Counts.Terminated++
				anyCommit = true
			case types.OutcomeAborted:
				res.Counts.GroupsWithParticipants++
				res.Counts.Terminated++
				anyAbort = true
			case types.OutcomeBlocked:
				res.Counts.GroupsWithParticipants++
				res.Counts.Blocked++
			}
		}
		if anyCommit && anyAbort {
			res.Violations++
		}
		res.Trials++
	}

	// Per-(item, group) accessibility. Replica presence and the lock
	// footprint are protocol independent; only "did the group terminate"
	// (locks released) differs per decider.
	sc.Assignment.ForEachItem(func(ic voting.ItemConfig) {
		for gi := 0; gi < ng; gi++ {
			e.present[gi] = 0
			e.locked[gi] = 0
		}
		written := sc.Writeset.Contains(ic.Item)
		for _, cp := range ic.Copies {
			gi := e.siteGroup[cp.Site]
			if gi < 0 {
				continue // the crashed coordinator serves nothing
			}
			e.present[gi] += cp.Votes
			if written {
				switch sc.States[cp.Site] {
				case types.StateWait, types.StatePC, types.StatePA:
					e.locked[gi] += cp.Votes
				}
			}
		}
		for gi := 0; gi < ng; gi++ {
			if e.present[gi] == 0 {
				continue
			}
			for d := range rules {
				free := e.present[gi]
				switch e.outcomes[d*ng+gi] {
				case types.OutcomeCommitted, types.OutcomeAborted:
					// Terminated: every lock in the group was released.
				default:
					free -= e.locked[gi]
				}
				results[d].Counts.ItemGroupPairs++
				if free >= ic.R {
					results[d].Counts.Readable++
				}
				if free >= ic.W {
					results[d].Counts.Writable++
				}
			}
		}
	})
}

// AnalyzeAnalytic computes, for one scenario under one protocol, the Counts
// and violation count that Replay + Analyze + Tally would produce — without
// running the discrete-event engine. The differential test suite asserts the
// equivalence against the replay oracle.
func AnalyzeAnalytic(sc Scenario, spec core.Spec) (Counts, int) {
	results := make([]MCResult, 1)
	frame := quorumcalc.NewFrame(sc.Assignment, sc.Writeset, sc.Participants)
	newAnalyticEval().run(sc, frame, []quorumcalc.Quorums{spec.Rule(sc.Participants).Over(frame)}, results)
	return results[0].Counts, results[0].Violations
}
