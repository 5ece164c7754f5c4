// Package core implements the paper's contribution: the quorum-based commit
// protocols (CP1, CP2; Fig. 9) and termination protocols (TP1, Fig. 5; TP2,
// Fig. 8) of Huang & Li, ICDE 1988, and the three baselines sharing their
// automata: two-phase commit (Fig. 1), Skeen's 3PC (Fig. 2) and Skeen's
// quorum-based protocol (ref. [16]).
//
// Unlike Skeen's quorum-based protocol, which counts quorums in opaque
// per-site votes, these protocols count the *replica* votes of the weighted
// voting partition-processing strategy: the commit side of TP1 needs w(x)
// votes for every item x in the transaction's writeset W(TR), and the abort
// side needs r(x) votes for some x. TP2 swaps the roles (r(x)-for-some on
// the commit side, w(x)-for-every on the abort side). Either way, a
// partition that will be able to serve an item after termination is much
// more likely to be able to terminate — the paper's availability gain
// (Example 1). 3PC's rule demands no quorum at all: safe under site
// failures, inconsistent under partitioning (Example 2). 2PC is 3PC without
// the buffer state: its coordinator sends COMMIT on the last yes vote, and its
// cooperative termination rule is the same ladder with quorums that never
// hold, so a poll that finds every reachable participant in W blocks.
//
// The matching commit protocols let the coordinator send COMMIT before all
// PC-ACKs arrive: CP1 once the ACKs carry w(x) votes for every x (an abort
// quorum is then impossible forever), CP2 once they carry r(x) votes for
// some x. CP2 therefore commits faster than CP1, which commits faster than
// plain 3PC.
//
// All five are rule tables declared in package quorumcalc (TP1Rule, TP2Rule,
// SkeenRule, ThreePCRule, TwoPCRule) run by package threephase's participant,
// coordinator and terminator. Spec's Variant only selects the table.
package core

import (
	"fmt"
	"strings"

	"qcommit/internal/protocol"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/threephase"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// Variant selects one of the five protocols.
type Variant int

// Variants. The zero Variant is Protocol1; any other value outside these
// fails Validate.
const (
	// Protocol1 is CP1 + TP1 (Figs. 5 and 9).
	Protocol1 Variant = 1
	// Protocol2 is CP2 + TP2 (Fig. 8).
	Protocol2 Variant = 2
	// ThreePC is Skeen's 3PC with its site-failure termination rule.
	ThreePC Variant = 3
	// SkeenQ is Skeen's quorum-based commit protocol over Spec's site votes.
	SkeenQ Variant = 4
	// TwoPC is two-phase commit (Fig. 1) with cooperative termination.
	TwoPC Variant = 5
)

// Spec is a commit and termination protocol: the paper's protocol 1 or 2,
// 3PC, Skeen's quorum protocol, or 2PC.
type Spec struct {
	// Variant selects the protocol. Defaults to Protocol1.
	Variant Variant
	// Votes assigns each site its vote weight under SkeenQ; sites absent
	// from the map have 0 votes. Vc is SkeenQ's commit quorum and Va its
	// abort quorum; Vc + Va must exceed the total votes. Other variants
	// take none of the three.
	Votes  map[types.SiteID]int
	Vc, Va int
	// BuggyBufferCrossing reintroduces the rule violation of Example 3
	// (participants answering PREPARE-TO-COMMIT in PA and PREPARE-TO-ABORT
	// in PC), for the counterexample reproduction only.
	BuggyBufferCrossing bool

	// perTransaction is set by PerTransaction only, so a SkeenQ Spec whose
	// votes or quorums were merely forgotten still fails Validate.
	perTransaction bool
}

// Majority returns, for v single-vote sites, the majority commit quorum and
// the smallest abort quorum intersecting it.
func Majority(v int) (vc, va int) {
	va, vc = voting.MajorityQuorums(v)
	return vc, va
}

// Uniform builds the SkeenQ Spec giving one vote to each site, with quorums
// Vc, Va.
func Uniform(sites []types.SiteID, vc, va int) Spec {
	votes := make(map[types.SiteID]int, len(sites))
	for _, s := range sites {
		votes[s] = 1
	}
	return Spec{Variant: SkeenQ, Votes: votes, Vc: vc, Va: va}
}

// PerTransaction builds the SkeenQ Spec that gives each participant one
// vote and sizes Majority quorums per transaction — the studies' convention,
// since a cluster-wide quorum is unreachable for a transaction whose items
// replicate on fewer than Vc sites.
func PerTransaction() Spec { return Spec{Variant: SkeenQ, perTransaction: true} }

func (s Spec) variant() Variant {
	if s.Variant == 0 {
		return Protocol1
	}
	return s.Variant
}

// known reports whether the Spec's Variant is one of the five.
func (s Spec) known() bool { return s.variant() >= Protocol1 && s.variant() <= TwoPC }

// Validate checks that the Variant is known, that only SkeenQ carries site
// votes and quorums, and SkeenQ's quorum-intersection constraint Vc + Va > V.
func (s Spec) Validate() error {
	if !s.known() {
		return fmt.Errorf("core: unknown variant %d", int(s.Variant))
	}
	if s.variant() != SkeenQ || s.perTransaction {
		if s.Votes != nil || s.Vc != 0 || s.Va != 0 {
			return fmt.Errorf("core: %s takes no site votes or quorums (Vc=%d Va=%d)", s.Name(), s.Vc, s.Va)
		}
		return nil
	}
	if s.Votes == nil {
		return fmt.Errorf("core: no vote assignment (Vc=%d Va=%d)", s.Vc, s.Va)
	}
	total := 0
	for _, v := range s.Votes {
		if v < 0 {
			return fmt.Errorf("core: negative site vote")
		}
		total += v
	}
	if s.Vc <= 0 || s.Va <= 0 {
		return fmt.Errorf("core: quorums must be positive (Vc=%d Va=%d)", s.Vc, s.Va)
	}
	if s.Vc+s.Va <= total {
		return fmt.Errorf("core: Vc+Va must exceed total votes (Vc=%d Va=%d V=%d)", s.Vc, s.Va, total)
	}
	return nil
}

var names = [...]string{Protocol1: "QC1", Protocol2: "QC2", ThreePC: "3PC", SkeenQ: "SkeenQ", TwoPC: "2PC"}

// Name identifies the protocol in traces and result tables: "2PC", "3PC",
// "SkeenQ", "QC1" or "QC2".
func (s Spec) Name() string {
	if !s.known() {
		return fmt.Sprintf("Variant(%d)", int(s.Variant))
	}
	return names[s.variant()]
}

// Rule returns the table the coordinator and terminator run for a
// transaction at participants — TP1 with commit protocol 1, TP2 with commit
// protocol 2, site votes ≥ Vc to commit and ≥ Va to abort for SkeenQ, 3PC's
// site-failure rule, or 2PC's cooperative rule. Compiled over the
// transaction's quorumcalc.Frame it is also all the analytic engines need to
// decide the transaction's fate without replaying it.
func (s Spec) Rule(participants []types.SiteID) quorumcalc.Rule {
	switch s.variant() {
	case Protocol2:
		return quorumcalc.TP2Rule()
	case ThreePC:
		return quorumcalc.ThreePCRule()
	case TwoPC:
		return quorumcalc.TwoPCRule()
	case SkeenQ:
		if s.perTransaction {
			vc, va := Majority(len(participants))
			return quorumcalc.SkeenRule(nil, vc, va)
		}
		return quorumcalc.SkeenRule(s.Votes, s.Vc, s.Va)
	}
	return quorumcalc.TP1Rule()
}

// NewCoordinator builds the commit coordinator for a transaction issued at
// this site, over a rule of its own that it compiles at Start. COMMIT goes
// out once the PC-ACKs satisfy the rule's ack quorum (Fig. 9's early commit;
// all of them for 3PC), or on the last yes vote for 2PC.
func (s Spec) NewCoordinator(txn types.TxnID, ws types.Writeset, participants []types.SiteID) protocol.Automaton {
	return threephase.NewCoordinator(txn, ws, participants, &quorumcalc.Quorums{Rule: s.Rule(participants)})
}

// NewParticipant builds the per-site participant. init is non-nil when the
// participant is reconstructed from the WAL after a crash.
func (s Spec) NewParticipant(txn types.TxnID, init *wal.TxnImage) protocol.Automaton {
	return threephase.NewParticipant(txn, init, s.BuggyBufferCrossing)
}

// Standard returns the five protocols in comparison order: 2PC, 3PC, Skeen's
// quorum protocol, and the paper's protocols 1 and 2. Skeen's protocol gets
// one vote per site and majority quorums — over the given sites, or, when
// none are given, per transaction over its participants (PerTransaction, the
// convention of the studies).
func Standard(sites []types.SiteID) []Spec {
	skeen := PerTransaction()
	if len(sites) > 0 {
		vc, va := Majority(len(sites))
		skeen = Uniform(sites, vc, va)
	}
	return []Spec{{Variant: TwoPC}, {Variant: ThreePC}, skeen, {Variant: Protocol1}, {Variant: Protocol2}}
}

// ByName returns the Standard protocol over the given cluster sites with the
// given name (2PC, 3PC, SkeenQ, QC1 or QC2, in any letter case), validated.
func ByName(name string, sites []types.SiteID) (Spec, error) {
	if len(sites) == 0 {
		return Spec{}, fmt.Errorf("protocol %q: no sites to size its quorums over", name)
	}
	for _, spec := range Standard(sites) {
		if strings.EqualFold(spec.Name(), name) {
			return spec, spec.Validate()
		}
	}
	return Spec{}, fmt.Errorf("unknown protocol %q (want 2PC, 3PC, SkeenQ, QC1 or QC2)", name)
}

// String implements fmt.Stringer: "protocol 1" or "protocol 2" for the
// paper's pair, the protocol's name for the three baselines.
func (v Variant) String() string {
	if v == ThreePC || v == SkeenQ || v == TwoPC {
		return names[v]
	}
	return fmt.Sprintf("protocol %d", int(v))
}
