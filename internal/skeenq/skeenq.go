// Package skeenq implements Skeen's quorum-based commit protocol (Proc. 6th
// Berkeley Workshop, 1982 — reference [16] of the paper), the prior work the
// paper improves on.
//
// Each site is assigned some number of votes. When failures occur, a
// transaction is committed only if a commit quorum Vc of site votes is cast
// for committing, and aborted only if an abort quorum Va is cast for
// aborting, with Vc + Va > V (the total). Because the quorums are counted in
// *site* votes regardless of which data items a partition can serve, a
// partition may block the transaction even though it holds a replica quorum
// for some written item — the availability gap Example 1 demonstrates and
// the paper's protocols close. In rule-table terms (quorumcalc.SkeenRule) it
// is the same five-way ladder as the paper's protocols with site votes in
// place of replica votes.
package skeenq

import (
	"fmt"

	"qcommit/internal/protocol"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/threephase"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// Spec is Skeen's quorum protocol with a site-vote assignment, or — built by
// PerTransaction — with quorums sized from each transaction's participants.
type Spec struct {
	// Votes assigns each site its vote weight. Sites absent from the map
	// have 0 votes.
	Votes map[types.SiteID]int
	// Vc is the commit quorum; Va is the abort quorum; Vc + Va must exceed
	// the total votes.
	Vc, Va int
	// PatienceRounds caps participant-initiated termination attempts.
	PatienceRounds int

	// perTransaction is set by PerTransaction only, so a Spec whose votes or
	// quorums were merely forgotten still fails Validate.
	perTransaction bool
}

var (
	_ protocol.Spec    = Spec{}
	_ threephase.Ruled = Spec{}
)

// Majority returns, for v single-vote sites, the majority commit quorum and
// the smallest abort quorum intersecting it.
func Majority(v int) (vc, va int) {
	va, vc = voting.MajorityQuorums(v)
	return vc, va
}

// Uniform builds a Spec giving one vote to each site, with quorums Vc, Va.
func Uniform(sites []types.SiteID, vc, va int) Spec {
	votes := make(map[types.SiteID]int, len(sites))
	for _, s := range sites {
		votes[s] = 1
	}
	return Spec{Votes: votes, Vc: vc, Va: va}
}

// PerTransaction builds the Spec that sizes its quorums per transaction: one
// vote per participant, Majority quorums over that transaction's participant
// set. That is the convention of the availability and churn studies, where
// every transaction has a different participant list and a cluster-wide
// quorum would be unreachable for transactions whose items replicate on fewer
// than Vc sites.
func PerTransaction() Spec { return Spec{perTransaction: true} }

// Validate checks the quorum-intersection constraint Vc + Va > V.
func (s Spec) Validate() error {
	if s.perTransaction {
		if s.Votes != nil || s.Vc != 0 || s.Va != 0 {
			return fmt.Errorf("skeenq: per-transaction quorums take no vote assignment (Vc=%d Va=%d)", s.Vc, s.Va)
		}
		return nil
	}
	if s.Votes == nil {
		return fmt.Errorf("skeenq: no vote assignment (Vc=%d Va=%d)", s.Vc, s.Va)
	}
	total := 0
	for _, v := range s.Votes {
		if v < 0 {
			return fmt.Errorf("skeenq: negative site vote")
		}
		total += v
	}
	if s.Vc <= 0 || s.Va <= 0 {
		return fmt.Errorf("skeenq: quorums must be positive (Vc=%d Va=%d)", s.Vc, s.Va)
	}
	if s.Vc+s.Va <= total {
		return fmt.Errorf("skeenq: Vc+Va must exceed total votes (Vc=%d Va=%d V=%d)", s.Vc, s.Va, total)
	}
	return nil
}

// Name implements protocol.Spec.
func (Spec) Name() string { return "SkeenQ" }

// Rule implements threephase.Ruled: site votes ≥ Vc to commit, ≥ Va to abort.
func (s Spec) Rule(_ []types.ItemID, participants []types.SiteID) quorumcalc.Rule {
	if s.perTransaction {
		vc, va := Majority(len(participants))
		return quorumcalc.SkeenRule(nil, vc, va)
	}
	return quorumcalc.SkeenRule(s.Votes, s.Vc, s.Va)
}

// NewCoordinator implements protocol.Spec: the coordinator may commit once
// PC-ACKs carry Vc site votes.
func (s Spec) NewCoordinator(txn types.TxnID, ws types.Writeset, participants []types.SiteID) protocol.Automaton {
	return threephase.NewCoordinator(txn, ws, participants, s.Rule(nil, participants))
}

// NewParticipant implements protocol.Spec.
func (s Spec) NewParticipant(txn types.TxnID, init *wal.TxnImage) protocol.Automaton {
	return threephase.NewParticipant(txn, init, threephase.ParticipantOpts{PatienceRounds: s.PatienceRounds})
}

// NewTerminator implements protocol.Spec.
func (s Spec) NewTerminator(txn types.TxnID, _ types.Writeset, participants []types.SiteID, epoch uint32) protocol.Automaton {
	return threephase.NewTerminator(txn, participants, epoch, s.Rule(nil, participants))
}
