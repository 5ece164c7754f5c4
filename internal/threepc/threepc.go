// Package threepc implements Skeen's three-phase commit protocol (Fig. 2 of
// the paper) together with its termination protocol, which was designed for
// site failures only.
//
// The termination rule is the one quoted in the paper's Example 2: "if there
// exists a site in PC state or commit state, then the transaction should be
// committed; else the transaction should be aborted". Under pure site
// failures this is nonblocking and safe; under network partitioning it
// terminates transactions inconsistently — partitions with a PC site commit
// while partitions without one abort. The repository reproduces exactly that
// misbehaviour (Example 2) as a baseline. The rule itself is
// quorumcalc.ThreePCRule, the one rule table whose quorums demand nothing.
package threepc

import (
	"qcommit/internal/protocol"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/threephase"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// Spec is the 3PC protocol family.
type Spec struct {
	// PatienceRounds caps participant-initiated termination attempts.
	PatienceRounds int
}

var (
	_ protocol.Spec    = Spec{}
	_ threephase.Ruled = Spec{}
)

// Name implements protocol.Spec.
func (Spec) Name() string { return "3PC" }

// Rule implements threephase.Ruled with the site-failure rule.
func (Spec) Rule(_ []types.ItemID, participants []types.SiteID) quorumcalc.Rule {
	return quorumcalc.ThreePCRule(len(participants))
}

// NewCoordinator implements protocol.Spec: plain 3PC waits for every PC-ACK
// and presumes silent sites failed when the window closes.
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
