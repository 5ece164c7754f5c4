// Package quorumcalc owns the termination rules of the three-phase protocol
// families and the arithmetic that decides a transaction's fate from them.
//
// The paper's point is that Termination Protocol 1 (Fig. 5), Termination
// Protocol 2 (Fig. 8) and Skeen's quorum protocol are the same five-way
// ladder — commit / abort / try-commit / try-abort / block — over one
// commit-side quorum Qc and one abort-side quorum Qa, and that the commit
// protocols of Fig. 9 release COMMIT as soon as the PC-ACKs satisfy that same
// Qc. A Rule is that pair, declared once per protocol (TP1Rule, TP2Rule,
// SkeenRule); ThreePCRule is 3PC's site-failure rule, the one table that is
// deliberately different: its quorums demand nothing and any participant in
// PC commits. TwoPCRule is 2PC's cooperative termination rule, the same
// ladder with quorums that never hold, over a commit protocol with no
// PREPARE round. The automata in package threephase and the
// analytic engines (packages avail and churn) all read the same Rule, so the
// live terminator, the simulators and the arithmetic agree by construction.
//
// Rule.Outcome is the analytic counterpart of a termination attempt: the
// outcome a partition group reaches, computed from its state tally with no
// discrete-event engine, no messages, no WAL. See its comment for the model
// under which that is exact.
package quorumcalc

import (
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// Verdict is the phase-2 classification of a termination coordinator after
// polling local states (the five-way branch of Figs. 5 and 8).
type Verdict uint8

// Verdicts.
const (
	// VerdictCommit terminates immediately with COMMIT.
	VerdictCommit Verdict = iota
	// VerdictAbort terminates immediately with ABORT.
	VerdictAbort
	// VerdictTryCommit attempts to establish a commit quorum via
	// PREPARE-TO-COMMIT.
	VerdictTryCommit
	// VerdictTryAbort attempts to establish an abort quorum via
	// PREPARE-TO-ABORT.
	VerdictTryAbort
	// VerdictBlock blocks the transaction in this partition.
	VerdictBlock
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictCommit:
		return "commit"
	case VerdictAbort:
		return "abort"
	case VerdictTryCommit:
		return "try-commit"
	case VerdictTryAbort:
		return "try-abort"
	default:
		return "block"
	}
}

// numStates is the size of the per-state tables (q, W, PC, PA, C, A).
const numStates = int(types.StateAborted) + 1

// Tally is the termination-relevant summary of one partition group: which
// reachable participants occupy each local protocol state — what a
// termination coordinator's phase-1 poll collects. It is shaped for reuse
// across trials (Reset keeps the per-state site slices).
type Tally struct {
	sites [numStates][]types.SiteID
	// scratch backs union, so deciding allocates nothing once warm.
	scratch []types.SiteID
}

// Reset clears the tally for a new group, retaining allocated capacity.
func (t *Tally) Reset() {
	for i := range t.sites {
		t.sites[i] = t.sites[i][:0]
	}
}

// Add records one participant in the given local state, which must be one of
// the six defined states (types.State.Valid).
func (t *Tally) Add(site types.SiteID, st types.State) {
	t.sites[st] = append(t.sites[st], site)
}

// Count returns the number of participants tallied in the given state.
func (t *Tally) Count(st types.State) int { return len(t.sites[st]) }

// Len returns the number of participants tallied, over all states.
func (t *Tally) Len() int {
	n := 0
	for i := range t.sites {
		n += len(t.sites[i])
	}
	return n
}

// Sites returns the participants tallied in the given state. The slice is
// owned by the tally and valid until the next Reset.
func (t *Tally) Sites(st types.State) []types.SiteID { return t.sites[st] }

// union returns the participants tallied in either state, valid until the
// next union or Reset.
func (t *Tally) union(a, b types.State) []types.SiteID {
	t.scratch = append(append(t.scratch[:0], t.sites[a]...), t.sites[b]...)
	return t.scratch
}

// uncertain returns the number of participants holding locks while awaiting
// a decision (W, PC or PA) — the states whose presence makes an undecided
// group report "blocked".
func (t *Tally) uncertain() int {
	return t.Count(types.StateWait) + t.Count(types.StatePC) + t.Count(types.StatePA)
}

// Quorum reports whether the given sites jointly establish one side of a
// termination rule. The assignment carries the replica vote configuration for
// quorums that count replica votes; site-vote quorums ignore it.
type Quorum func(a *voting.Assignment, sites []types.SiteID) bool

// writeEvery is the quorum "w(x) replica votes for every written item x".
func writeEvery(items []types.ItemID) Quorum {
	return func(a *voting.Assignment, sites []types.SiteID) bool {
		return a.WriteQuorumForEvery(items, sites)
	}
}

// readSome is the quorum "r(x) replica votes for some written item x".
func readSome(items []types.ItemID) Quorum {
	return func(a *voting.Assignment, sites []types.SiteID) bool {
		return a.ReadQuorumForSome(items, sites)
	}
}

// siteVotes is the quorum "at least need site votes". Sites absent from votes
// carry zero weight; a nil map gives every site one vote.
func siteVotes(votes map[types.SiteID]int, need int) Quorum {
	return func(_ *voting.Assignment, sites []types.SiteID) bool {
		total := len(sites)
		if votes != nil {
			total = 0
			for _, s := range sites {
				total += votes[s]
			}
		}
		return total >= need
	}
}

// always is the quorum that demands nothing.
func always(*voting.Assignment, []types.SiteID) bool { return true }

// never is the quorum no set of sites holds.
func never(*voting.Assignment, []types.SiteID) bool { return false }

// Rule is one protocol's termination rule together with the early-commit rule
// of its commit protocol. For the quorum family it is just the pair (Qc, Qa)
// and the names the rule goes by in traces.
type Rule struct {
	// Name identifies the termination rule in traces ("TP1", "TP2",
	// "SkeenQ-term", "3PC-term", "2PC-term"); AckName the coordinator's
	// commit rule ("CP1 w(x)-every", "CP2 r(x)-some", "SkeenQ Vc",
	// "all-acks", "unanimous yes").
	Name, AckName string
	// Qc and Qa are the commit-side and abort-side quorums: what a try-commit
	// or try-abort round must confirm, and what Decide tests the tally
	// against.
	Qc, Qa Quorum
	// Ack is what the PC-ACKs must hold before the commit coordinator may
	// send COMMIT — Qc itself for the quorum family.
	Ack Quorum
	// siteFailure marks 3PC's rule, which assumes silent sites crashed rather
	// than were partitioned away: any participant in PC commits — once every
	// operational one has been moved there (Confirmed) — and the coordinator
	// commits when the ack window closes short of Ack.
	siteFailure bool
	// twoPhase marks 2PC's rule, whose coordinator commits on the last yes
	// vote without a PREPARE-TO-COMMIT round (Prepares).
	twoPhase bool
}

// quorumRule is the quorum family's table: the commit coordinator waits for
// the same Qc the termination protocol would need.
func quorumRule(name, ackName string, qc, qa Quorum) Rule {
	return Rule{Name: name, AckName: ackName, Qc: qc, Qa: qa, Ack: qc}
}

// TP1Rule is Termination Protocol 1 (Fig. 5) with commit protocol 1 (Fig. 9)
// over the transaction's written items: the commit side needs w(x) replica
// votes for every x ∈ W(TR), the abort side r(x) votes for some x. Once the
// PC-ACKs carry the commit quorum an abort quorum can never be formed any
// more, which is why the coordinator need not wait for the rest.
func TP1Rule(items []types.ItemID) Rule {
	return quorumRule("TP1", "CP1 w(x)-every", writeEvery(items), readSome(items))
}

// TP2Rule is Termination Protocol 2 (Fig. 8) with commit protocol 2: TP1 with
// the r/w roles swapped, so commit protocol 2 releases COMMIT sooner than
// commit protocol 1.
func TP2Rule(items []types.ItemID) Rule {
	return quorumRule("TP2", "CP2 r(x)-some", readSome(items), writeEvery(items))
}

// SkeenRule is Skeen's quorum protocol with the given per-site vote weights
// (nil: one vote per site) and commit/abort quorums Vc, Va.
func SkeenRule(votes map[types.SiteID]int, vc, va int) Rule {
	return quorumRule("SkeenQ-term", "SkeenQ Vc", siteVotes(votes, vc), siteVotes(votes, va))
}

// ThreePCRule is 3PC's site-failure termination rule for a transaction with
// the given number of participants, quoted in the paper's Example 2: "if
// there exists a site in PC state or commit state, then the transaction
// should be committed; else the transaction should be aborted". Its
// confirmations demand nothing and its coordinator waits for every PC-ACK but
// commits anyway when the window closes — which is exactly why 3PC terminates
// every partition and violates atomicity across them.
func ThreePCRule(participants int) Rule {
	return Rule{Name: "3PC-term", AckName: "all-acks", Qc: always, Qa: always,
		Ack: siteVotes(nil, participants), siteFailure: true}
}

// TwoPCRule is 2PC's cooperative termination rule (Fig. 1): the ladder with
// no quorum — COMMIT on a committed reporter, ABORT on an aborted or
// never-voted one, block otherwise, since a participant in W cannot know
// what the coordinator decided. Its quorums never hold, so Decide never
// returns a try verdict, and its coordinator commits on unanimous yes without
// a PREPARE-TO-COMMIT round.
func TwoPCRule() Rule {
	return Rule{Name: "2PC-term", AckName: "unanimous yes", Qc: never, Qa: never, Ack: never, twoPhase: true}
}

// Decide classifies a phase-1 tally. For the quorum family (Figs. 5 and 8):
//
//   - immediate COMMIT if a participant committed, or those in PC hold Qc;
//   - immediate ABORT if a participant aborted or never voted, or those in PA
//     hold Qa;
//   - commit quorum possible if some participant is in PC and those not in PA
//     hold Qc;
//   - abort quorum possible if those not in PC hold Qa;
//   - otherwise block.
//
// Past the immediate branches every responder is in W, PC or PA, so "not in
// PA" is W∪PC and "not in PC" is W∪PA.
func (r Rule) Decide(a *voting.Assignment, t *Tally) Verdict {
	aborted, anyPC := t.Count(types.StateAborted) > 0, t.Count(types.StatePC) > 0
	switch {
	case r.commits(a, t):
		return VerdictCommit
	case r.siteFailure:
		if !aborted && anyPC {
			// Move waiting participants to PC first, then commit.
			return VerdictTryCommit
		}
		return VerdictAbort
	case aborted || t.Count(types.StateInitial) > 0 || r.Qa(a, t.Sites(types.StatePA)):
		return VerdictAbort
	case anyPC && r.Qc(a, t.union(types.StateWait, types.StatePC)):
		return VerdictTryCommit
	case r.Qa(a, t.union(types.StateWait, types.StatePA)):
		return VerdictTryAbort
	default:
		return VerdictBlock
	}
}

// commits is Decide's first branch, the one no other reply outranks: a
// participant committed, or (quorum family) those in PC hold Qc. Both are
// monotone in the tally, so once true they stay true whatever else reports.
func (r Rule) commits(a *voting.Assignment, t *Tally) bool {
	return t.Count(types.StateCommitted) > 0 || !r.siteFailure && r.Qc(a, t.Sites(types.StatePC))
}

// Settled reports whether a phase-1 poll of polled participants may stop
// waiting: no reply still outstanding could change Decide's verdict on t.
// That is so when every polled participant has answered, and when the verdict
// is already COMMIT (see commits). polled counts the participants the poll
// waits for; the three-phase terminator leaves out the unanswered suspects
// (protocol.Env.Suspected). It is deliberately not so for an abort or
// initial-state reply while someone is silent — a later C outranks it — nor
// for any try or block verdict, which more replies can turn either way.
func (r Rule) Settled(a *voting.Assignment, t *Tally, polled int) bool {
	return t.Len() >= polled || r.commits(a, t)
}

// Confirmed reports whether a confirm round attempting try (VerdictTryCommit
// or VerdictTryAbort) may distribute its decision: confirmed — the phase-1
// reporters already in the target state plus the sites that acknowledged the
// PREPARE — holds the attempted quorum. waiting says some prepared site may
// still acknowledge (the window is open and not all have). The quorum family
// needs the quorum and nothing else, the early commit of Fig. 9 applied to
// termination; 3PC's quorum demands nothing, and what its site-failure rule
// needs instead is every operational participant in PC before anyone
// commits, so it is done exactly when nobody is left to wait for.
func (r Rule) Confirmed(try Verdict, a *voting.Assignment, confirmed []types.SiteID, waiting bool) bool {
	if r.siteFailure {
		return !waiting
	}
	if try == VerdictTryAbort {
		return r.Qa(a, confirmed)
	}
	return r.Qc(a, confirmed)
}

// CommitsOnAckTimeout reports what the commit coordinator does when the ack
// window closes short of Ack: 3PC commits anyway, presuming the silent
// participants failed; the quorum family hands the transaction to the
// termination protocol.
func (r Rule) CommitsOnAckTimeout() bool { return r.siteFailure }

// Prepares reports whether the commit coordinator runs a PREPARE-TO-COMMIT
// round between the votes and COMMIT: every rule but 2PC's does.
func (r Rule) Prepares() bool { return !r.twoPhase }

// Decider computes the outcome one partition group's termination attempt
// reaches, given the group's state tally.
//
// The returned outcome is what engine.Cluster.GroupOutcome reports after the
// simulation quiesces: OutcomeCommitted/OutcomeAborted when the group
// terminates, OutcomeBlocked when participants keep holding locks, and
// OutcomeUnknown when no tallied participant ever voted (nothing to
// terminate, nothing locked).
type Decider func(a *voting.Assignment, t *Tally) types.Outcome

// passiveOutcome is the group outcome when no site can initiate termination:
// states are frozen, so the group reports whatever its terminal sites
// already decided, blocked if undecided participants hold locks, and unknown
// when only unvoted (q) participants — or none at all — are present.
func passiveOutcome(t *Tally) types.Outcome {
	switch {
	case t.Count(types.StateCommitted) > 0:
		return types.OutcomeCommitted
	case t.Count(types.StateAborted) > 0:
		return types.OutcomeAborted
	case t.uncertain() > 0:
		return types.OutcomeBlocked
	default:
		return types.OutcomeUnknown
	}
}

// Outcome folds the poll → classify → confirm → distribute ladder into a
// single decision over the tally. It is exact under the "interrupted commit"
// model the availability Monte Carlo (package avail) replays — a static
// partition, the commit coordinator crashed, every other site up, reliable
// intra-group delivery — because then the event-driven termination protocol
// is fully determined by the group's initial tally:
//
//   - any participant in W, PC or PA arms a patience timer and eventually
//     elects a termination coordinator; without one the group stays passive;
//   - phase 1 always collects the local state of every up participant in the
//     group (reachable sites answer within the 2T window, nothing is lost);
//   - a VerdictTryCommit round moves every waiting (W) participant to PC and
//     collects their PC-ACKs, so the confirmation set equals exactly the
//     site set whose votes satisfied the try-commit condition — the quorum
//     is always confirmed, and symmetrically for VerdictTryAbort;
//   - a VerdictBlock round changes no state, so re-entering the election
//     yields the same verdict until the round budget runs out.
//
// The discrete-event engine remains the oracle — package avail's differential
// tests assert count-for-count equality between the two — and stays required
// whenever the model does not hold: lossy or duplicating networks, mid-round
// crashes or heals, the buggy buffer-crossing participant of Example 3, or
// whenever message ladders and violation traces are wanted.
func (r Rule) Outcome(a *voting.Assignment, t *Tally) types.Outcome {
	if t.uncertain() == 0 {
		return passiveOutcome(t)
	}
	switch r.Decide(a, t) {
	case VerdictCommit, VerdictTryCommit:
		return types.OutcomeCommitted
	case VerdictAbort, VerdictTryAbort:
		return types.OutcomeAborted
	default:
		return types.OutcomeBlocked
	}
}

// TP1 is TP1Rule's analytic decider.
func TP1(items []types.ItemID) Decider { return TP1Rule(items).Outcome }
