package live

import (
	"time"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// host is what a Node needs from whatever runtime hosts it: the protocol
// configuration, a clock anchor, a way to send and a way to wake outcome
// waiters. Two hosts exist: Cluster runs every site of an assignment in one
// process over a shared transport, and Server runs exactly one site — the
// qcommitd deployment shape, where each peer site lives in its own process and
// only the transport connects them. Node code must go through this interface
// for anything beyond its own state, so it cannot accidentally grow a
// dependency on cluster-global shared memory that a distributed host cannot
// provide. The one thing that does read other sites' memory — the adaptive
// access strategies' bookkeeping — is not here: it is a voting.Tracker handed
// to newNode, which a Cluster builds over its nodes and a Server leaves nil.
type host interface {
	// spec is the commit+termination protocol the host runs.
	spec() protocol.Spec
	// assignment is the weighted-voting replica configuration.
	assignment() *voting.Assignment
	// timeoutBase is the protocol timeout unit T.
	timeoutBase() time.Duration
	// maxTermRounds caps termination retries.
	maxTermRounds() int
	// startTime anchors the host's monotonic protocol clock.
	startTime() time.Time
	// send routes a protocol message through the host's transport.
	send(from, to types.SiteID, m msg.Message)
	// notifyOutcome wakes outcome waiters after a local decision.
	notifyOutcome(txn types.TxnID)
}
