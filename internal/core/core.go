// Package core implements the paper's contribution: the quorum-based commit
// protocols (CP1, CP2; Fig. 9) and termination protocols (TP1, Fig. 5; TP2,
// Fig. 8) of Huang & Li, ICDE 1988.
//
// Unlike Skeen's quorum-based protocol, which counts quorums in opaque
// per-site votes, these protocols count the *replica* votes of the weighted
// voting partition-processing strategy: the commit side of TP1 needs w(x)
// votes for every item x in the transaction's writeset W(TR), and the abort
// side needs r(x) votes for some x. TP2 swaps the roles (r(x)-for-some on
// the commit side, w(x)-for-every on the abort side). Either way, a
// partition that will be able to serve an item after termination is much
// more likely to be able to terminate — the paper's availability gain.
//
// The matching commit protocols let the coordinator send COMMIT before all
// PC-ACKs arrive: CP1 once the ACKs carry w(x) votes for every x (an abort
// quorum is then impossible forever), CP2 once they carry r(x) votes for
// some x. CP2 therefore commits faster than CP1, which commits faster than
// plain 3PC.
//
// Both pairs are rule tables declared in package quorumcalc (TP1Rule,
// TP2Rule); Spec only selects one and hands it to package threephase's
// automata.
package core

import (
	"fmt"

	"qcommit/internal/protocol"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/threephase"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// Variant selects between the paper's two protocol pairs.
type Variant int

// Variants.
const (
	// Protocol1 is CP1 + TP1 (Figs. 5 and 9).
	Protocol1 Variant = 1
	// Protocol2 is CP2 + TP2 (Fig. 8).
	Protocol2 Variant = 2
)

// Spec is the paper's quorum-based commit and termination protocol.
type Spec struct {
	// Variant selects protocol 1 or protocol 2. Defaults to Protocol1.
	Variant Variant
	// BuggyBufferCrossing reintroduces the rule violation of Example 3
	// (participants answering PREPARE-TO-COMMIT in PA and PREPARE-TO-ABORT
	// in PC). Only for the counterexample reproduction; never enable
	// otherwise.
	BuggyBufferCrossing bool
	// PatienceRounds caps participant-initiated termination attempts.
	PatienceRounds int
}

var (
	_ protocol.Spec    = Spec{}
	_ threephase.Ruled = Spec{}
)

func (s Spec) variant() Variant {
	if s.Variant == Protocol2 {
		return Protocol2
	}
	return Protocol1
}

// Name implements protocol.Spec.
func (s Spec) Name() string {
	if s.variant() == Protocol2 {
		return "QC2"
	}
	return "QC1"
}

// Rule implements threephase.Ruled: TP1 with commit protocol 1, or TP2 with
// commit protocol 2, over the transaction's written items.
func (s Spec) Rule(items []types.ItemID, _ []types.SiteID) quorumcalc.Rule {
	if s.variant() == Protocol2 {
		return quorumcalc.TP2Rule(items)
	}
	return quorumcalc.TP1Rule(items)
}

// NewCoordinator implements protocol.Spec with the early-commit rules of
// Fig. 9.
func (s Spec) NewCoordinator(txn types.TxnID, ws types.Writeset, participants []types.SiteID) protocol.Automaton {
	return threephase.NewCoordinator(txn, ws, participants, s.Rule(ws.Items(), participants))
}

// NewParticipant implements protocol.Spec.
func (s Spec) NewParticipant(txn types.TxnID, init *wal.TxnImage) protocol.Automaton {
	return threephase.NewParticipant(txn, init, threephase.ParticipantOpts{
		BuggyBufferCrossing: s.BuggyBufferCrossing,
		PatienceRounds:      s.PatienceRounds,
	})
}

// NewTerminator implements protocol.Spec.
func (s Spec) NewTerminator(txn types.TxnID, ws types.Writeset, participants []types.SiteID, epoch uint32) protocol.Automaton {
	return threephase.NewTerminator(txn, participants, epoch, s.Rule(ws.Items(), participants))
}

// String implements fmt.Stringer.
func (v Variant) String() string { return fmt.Sprintf("protocol %d", int(v)) }
