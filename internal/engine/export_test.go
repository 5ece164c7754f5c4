package engine

import (
	"qcommit/internal/protocol"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// ReplayStateOf is the reference StateOf is held to: the kernel's fast path,
// then images[txn], where images is wal.Replay of the site's whole log.
func (cl *Cluster) ReplayStateOf(id types.SiteID, txn types.TxnID, images map[types.TxnID]*wal.TxnImage) types.State {
	site := cl.Site(id)
	if o, over := site.k.Outcome(txn); over {
		return o.StateEquivalent()
	}
	if c := site.k.Txn(txn); c != nil {
		if p, ok := c.Automaton(protocol.RoleParticipant).(interface{ State() types.State }); ok {
			return p.State()
		}
	}
	if im := images[txn]; im != nil {
		return im.State
	}
	return types.StateInitial
}

// ViewState is the site's view alone, without the kernel's fast path.
func (s *Site) ViewState(txn types.TxnID) types.State { return s.view.State(txn) }
