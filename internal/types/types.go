// Package types defines the identifiers, protocol states, votes and
// decisions shared by every subsystem in the repository.
//
// The vocabulary follows Huang & Li (ICDE 1988): a transaction moves each
// participating site through the local states q (initial), W (wait),
// PC (prepare-to-commit), PA (prepare-to-abort), C (commit) and A (abort).
// PA and the rule that PC and PA never transition into each other are the
// paper's additions to Skeen's three-phase commit vocabulary.
package types

import (
	"fmt"
	"slices"
)

// SiteID identifies a database site. Sites are numbered from 1, matching the
// paper's examples (site1 ... site8).
type SiteID int32

// String implements fmt.Stringer.
func (s SiteID) String() string { return fmt.Sprintf("site%d", int32(s)) }

// TxnID identifies a distributed transaction.
type TxnID uint64

// String implements fmt.Stringer.
func (t TxnID) String() string { return fmt.Sprintf("TR%d", uint64(t)) }

// ItemID names a logical data item. A data item has one or more physical
// copies placed at distinct sites; see package voting for placements.
type ItemID string

// State is the local state of a participant for one transaction.
type State uint8

// Local transaction states. The committable states are StatePC and
// StateCommitted: a site occupies a committable state only if all
// participants voted yes.
const (
	// StateInitial is q: the site has not voted yet.
	StateInitial State = iota
	// StateWait is W: the site voted yes and waits for the outcome.
	StateWait
	// StatePC is the prepare-to-commit buffer state of 3PC.
	StatePC
	// StatePA is the prepare-to-abort buffer state introduced by the paper.
	StatePA
	// StateCommitted is C: the transaction is irrevocably committed here.
	StateCommitted
	// StateAborted is A: the transaction is irrevocably aborted here.
	StateAborted
)

var stateNames = [...]string{"q", "W", "PC", "PA", "C", "A"}

// String implements fmt.Stringer using the paper's single-letter names.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Terminal reports whether the state is irrevocable (C or A).
func (s State) Terminal() bool { return s == StateCommitted || s == StateAborted }

// Committable reports whether occupying this state implies every participant
// voted yes (PC or C).
func (s State) Committable() bool { return s == StatePC || s == StateCommitted }

// Valid reports whether s is one of the six defined states.
func (s State) Valid() bool { return s <= StateAborted }

// Vote is a participant's response to VOTE-REQ.
type Vote uint8

// Vote values.
const (
	VoteYes Vote = iota
	VoteNo
)

// Valid reports whether v is one of the two defined votes.
func (v Vote) Valid() bool { return v <= VoteNo }

// String implements fmt.Stringer.
func (v Vote) String() string {
	if v == VoteYes {
		return "yes"
	}
	return "no"
}

// Decision is the global outcome of a transaction.
type Decision uint8

// Decision values. DecisionNone means "not yet decided"; a termination
// protocol may additionally *block*, which is represented by OutcomeBlocked
// at the harness level, not as a Decision.
const (
	DecisionNone Decision = iota
	DecisionCommit
	DecisionAbort
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecisionCommit:
		return "commit"
	case DecisionAbort:
		return "abort"
	default:
		return "none"
	}
}

// Outcome classifies what a partition's termination attempt achieved for a
// transaction: committed, aborted, or blocked awaiting recovery. Split is an
// aggregate over sites, never one site's fate: some committed and others
// aborted, an atomicity violation.
type Outcome uint8

// Outcome values.
const (
	OutcomeUnknown Outcome = iota
	OutcomeCommitted
	OutcomeAborted
	OutcomeBlocked
	OutcomeSplit
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	case OutcomeBlocked:
		return "blocked"
	case OutcomeSplit:
		return "split"
	default:
		return "unknown"
	}
}

// StateEquivalent maps a terminal outcome to the corresponding local state
// (C or A); non-terminal outcomes map to the initial state.
func (o Outcome) StateEquivalent() State {
	switch o {
	case OutcomeCommitted:
		return StateCommitted
	case OutcomeAborted:
		return StateAborted
	default:
		return StateInitial
	}
}

// Outcome is the fate one site in state s reports: C and A are committed
// and aborted, W, PC and PA are blocked (voted yes, no decision yet), and q
// is unknown (never voted, or not involved).
func (s State) Outcome() Outcome {
	switch s {
	case StateCommitted:
		return OutcomeCommitted
	case StateAborted:
		return OutcomeAborted
	case StateWait, StatePC, StatePA:
		return OutcomeBlocked
	default:
		return OutcomeUnknown
	}
}

// Update is a single write in a transaction's writeset: item <- Value.
type Update struct {
	Item  ItemID
	Value int64
}

// Writeset is the ordered list of updates of a transaction. W(TR) in the
// paper's notation is the set of item IDs in the writeset.
type Writeset []Update

// Items returns the distinct item IDs in the writeset, preserving order. The
// result is never nil. Duplicates are found by scanning what has been kept so
// far: a transaction writes a handful of items.
func (w Writeset) Items() []ItemID {
	items := make([]ItemID, 0, len(w))
	for _, u := range w {
		if !slices.Contains(items, u.Item) {
			items = append(items, u.Item)
		}
	}
	return items
}

// Contains reports whether the writeset writes item x.
func (w Writeset) Contains(x ItemID) bool {
	for _, u := range w {
		if u.Item == x {
			return true
		}
	}
	return false
}

// ValueOf returns the last value written to x and whether x is written.
func (w Writeset) ValueOf(x ItemID) (int64, bool) {
	var v int64
	found := false
	for _, u := range w {
		if u.Item == x {
			v, found = u.Value, true
		}
	}
	return v, found
}

// Clone returns a deep copy of the writeset.
func (w Writeset) Clone() Writeset {
	out := make(Writeset, len(w))
	copy(out, w)
	return out
}
