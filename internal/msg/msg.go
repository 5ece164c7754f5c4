// Package msg defines the protocol messages exchanged by all commit and
// termination protocols in the repository, together with a compact binary
// wire codec (see codec.go).
//
// The message vocabulary is the union of what the two-phase commit protocol
// (Fig. 1 of the paper), the three-phase commit protocol (Fig. 2), Skeen's
// quorum-based protocol, and the paper's quorum-based commit and termination
// protocols (Figs. 5, 8, 9) need. The paper's contribution adds
// PREPARE-TO-ABORT and PA-ACK, and the termination protocol's local-state
// poll (STATE-REQ / STATE-RESP).
package msg

import (
	"fmt"

	"qcommit/internal/types"
)

// Kind discriminates message types on the wire and in traces.
type Kind uint8

// Message kinds.
const (
	KindInvalid Kind = iota
	KindVoteReq
	KindVoteResp
	KindPrepareToCommit
	KindPCAck
	KindPrepareToAbort
	KindPAAck
	KindCommit
	KindAbort
	KindDone
	KindStateReq
	KindStateResp
	// Kinds 12 and 13 were 2PC's DECISION-REQ/RESP, retired when 2PC took
	// the three-phase termination poll; they stay unnamed so no number moves.
	_
	_
	KindElectionCall
	KindElectionOK
	KindCoordAnnounce
	KindCopyReq
	KindCopyResp
	KindClientBegin
	KindClientBeginAck
	KindClientWait
	KindClientOutcome
	KindClientRead
	KindClientValue
	KindCtrlPartition
	KindCtrlAck
	KindOutcomeReq
)

var kindNames = map[Kind]string{
	KindVoteReq:         "VOTE-REQ",
	KindVoteResp:        "VOTE",
	KindPrepareToCommit: "PREPARE-TO-COMMIT",
	KindPCAck:           "PC-ACK",
	KindPrepareToAbort:  "PREPARE-TO-ABORT",
	KindPAAck:           "PA-ACK",
	KindCommit:          "COMMIT",
	KindAbort:           "ABORT",
	KindDone:            "DONE",
	KindStateReq:        "STATE-REQ",
	KindStateResp:       "STATE-RESP",
	KindElectionCall:    "ELECTION",
	KindElectionOK:      "ELECTION-OK",
	KindCoordAnnounce:   "COORDINATOR",
	KindCopyReq:         "COPY-REQ",
	KindCopyResp:        "COPY-RESP",
	KindClientBegin:     "CLIENT-BEGIN",
	KindClientBeginAck:  "CLIENT-BEGIN-ACK",
	KindClientWait:      "CLIENT-WAIT",
	KindClientOutcome:   "CLIENT-OUTCOME",
	KindClientRead:      "CLIENT-READ",
	KindClientValue:     "CLIENT-VALUE",
	KindCtrlPartition:   "CTRL-PARTITION",
	KindCtrlAck:         "CTRL-ACK",
	KindOutcomeReq:      "OUTCOME-REQ",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is implemented by every protocol message.
type Message interface {
	Kind() Kind
}

// VoteReq starts the first phase of every commit protocol: the coordinator
// distributes the update values to all sites holding copies of items in the
// writeset and asks each to vote.
type VoteReq struct {
	Txn          types.TxnID
	Coord        types.SiteID
	Participants []types.SiteID
	Writeset     types.Writeset
}

// Kind implements Message.
func (VoteReq) Kind() Kind { return KindVoteReq }

// VoteResp carries a participant's yes/no vote.
type VoteResp struct {
	Txn  types.TxnID
	Vote types.Vote
}

// Kind implements Message.
func (VoteResp) Kind() Kind { return KindVoteResp }

// PrepareToCommit moves a waiting participant into the PC buffer state.
type PrepareToCommit struct {
	Txn types.TxnID
}

// Kind implements Message.
func (PrepareToCommit) Kind() Kind { return KindPrepareToCommit }

// PCAck acknowledges entry into PC.
type PCAck struct {
	Txn types.TxnID
}

// Kind implements Message.
func (PCAck) Kind() Kind { return KindPCAck }

// PrepareToAbort moves a waiting participant into the PA buffer state. This
// message (and state) is the paper's addition: a site in PA relinquishes its
// right to participate in a commit quorum.
type PrepareToAbort struct {
	Txn types.TxnID
}

// Kind implements Message.
func (PrepareToAbort) Kind() Kind { return KindPrepareToAbort }

// PAAck acknowledges entry into PA.
type PAAck struct {
	Txn types.TxnID
}

// Kind implements Message.
func (PAAck) Kind() Kind { return KindPAAck }

// Commit irrevocably commits the transaction at the receiver.
type Commit struct {
	Txn types.TxnID
}

// Kind implements Message.
func (Commit) Kind() Kind { return KindCommit }

// Abort irrevocably aborts the transaction at the receiver.
type Abort struct {
	Txn types.TxnID
}

// Kind implements Message.
func (Abort) Kind() Kind { return KindAbort }

// Done acknowledges a Commit or Abort command; no automaton reads it yet.
type Done struct {
	Txn types.TxnID
}

// Kind implements Message.
func (Done) Kind() Kind { return KindDone }

// StateReq is phase 1 of the termination protocols: a (newly elected)
// termination coordinator polls participants for their local states.
type StateReq struct {
	Txn   types.TxnID
	Coord types.SiteID
	// Epoch distinguishes successive invocations of the (reenterable)
	// termination protocol so stale replies are discarded.
	Epoch uint32
}

// Kind implements Message.
func (StateReq) Kind() Kind { return KindStateReq }

// StateResp reports the sender's local state for the transaction.
type StateResp struct {
	Txn   types.TxnID
	Epoch uint32
	State types.State
}

// Kind implements Message.
func (StateResp) Kind() Kind { return KindStateResp }

// ElectionCall invites the receiver to accept the sender as coordinator of
// the termination protocol for Txn (invitation-style election, after
// Garcia-Molina).
type ElectionCall struct {
	Txn       types.TxnID
	Ballot    uint64
	Candidate types.SiteID
}

// Kind implements Message.
func (ElectionCall) Kind() Kind { return KindElectionCall }

// ElectionOK accepts an ElectionCall.
type ElectionOK struct {
	Txn    types.TxnID
	Ballot uint64
}

// Kind implements Message.
func (ElectionOK) Kind() Kind { return KindElectionOK }

// CoordAnnounce announces the sender as an elected termination coordinator.
type CoordAnnounce struct {
	Txn    types.TxnID
	Ballot uint64
	Coord  types.SiteID
}

// Kind implements Message.
func (CoordAnnounce) Kind() Kind { return KindCoordAnnounce }

// CopyReq asks the receiver for its current copy of an item (anti-entropy:
// a recovered site repairing replicas it may have missed writes on). Not a
// protocol message; served by the site host directly.
type CopyReq struct {
	Item types.ItemID
}

// Kind implements Message.
func (CopyReq) Kind() Kind { return KindCopyReq }

// CopyResp carries a copy's value and version. The receiver installs it only
// if the version exceeds its own (versions never regress).
type CopyResp struct {
	Item    types.ItemID
	Value   int64
	Version uint64
}

// Kind implements Message.
func (CopyResp) Kind() Kind { return KindCopyResp }

// OutcomeReq asks the receiver for a transaction's outcome: a site that
// restarts with the transaction unresolved in its log sends it at once to
// the transaction's other sites. Only a site where the transaction has
// terminated answers, with the COMMIT or ABORT itself; any other site stays
// silent. Asking changes nothing at the receiver.
type OutcomeReq struct {
	Txn types.TxnID
}

// Kind implements Message.
func (OutcomeReq) Kind() Kind { return KindOutcomeReq }

// TxnOf extracts the transaction ID a message concerns.
func TxnOf(m Message) types.TxnID {
	switch v := m.(type) {
	case VoteReq:
		return v.Txn
	case VoteResp:
		return v.Txn
	case PrepareToCommit:
		return v.Txn
	case PCAck:
		return v.Txn
	case PrepareToAbort:
		return v.Txn
	case PAAck:
		return v.Txn
	case Commit:
		return v.Txn
	case Abort:
		return v.Txn
	case Done:
		return v.Txn
	case StateReq:
		return v.Txn
	case StateResp:
		return v.Txn
	case ElectionCall:
		return v.Txn
	case ElectionOK:
		return v.Txn
	case CoordAnnounce:
		return v.Txn
	case OutcomeReq:
		return v.Txn
	case ClientBeginAck:
		return v.Txn
	case ClientWait:
		return v.Txn
	case ClientOutcome:
		return v.Txn
	default:
		return 0
	}
}

// Envelope is a routed message.
type Envelope struct {
	From types.SiteID
	To   types.SiteID
	Msg  Message
}

// String renders the envelope for traces.
func (e Envelope) String() string {
	return fmt.Sprintf("%s->%s %s", e.From, e.To, e.Msg.Kind())
}
