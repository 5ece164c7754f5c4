package live

import (
	"fmt"

	"qcommit/internal/obs"
	"qcommit/internal/types"
)

// nodeMetrics is one node's handle set on the shared registry. A nil
// *nodeMetrics (observability off) makes every recording method a single
// pointer check, so the zero-value cluster pays nothing.
type nodeMetrics struct {
	begun      *obs.Counter   // transactions begun with this site as coordinator
	begunAbort *obs.Counter   // of those, aborted at Begin on a locked local copy
	committed  *obs.Counter   // local commit decisions applied
	aborted    *obs.Counter   // local abort decisions applied
	termRounds *obs.Counter   // termination-protocol election campaigns started
	commitNS   *obs.Histogram // coordinator begin→commit latency
	mboxDepth  *obs.Gauge     // events queued in the mailbox right now
	flushWait  *obs.Histogram // flusher block time per job waiting on the group fsync
}

// newNodeMetrics registers the node's metric set on the observer's registry
// under canonical qcommit_* names labelled by site; nil observer (or nil
// registry) yields nil.
func newNodeMetrics(o *obs.Observer, site types.SiteID) *nodeMetrics {
	reg := o.Reg()
	if reg == nil {
		return nil
	}
	l := func(name string) string { return fmt.Sprintf(`%s{site="%d"}`, name, site) }
	return &nodeMetrics{
		begun:      reg.Counter(l("qcommit_txns_begun_total")),
		begunAbort: reg.Counter(l("qcommit_txns_begin_aborted_total")),
		committed:  reg.Counter(l("qcommit_txns_committed_total")),
		aborted:    reg.Counter(l("qcommit_txns_aborted_total")),
		termRounds: reg.Counter(l("qcommit_term_rounds_total")),
		commitNS:   reg.Histogram(l("qcommit_commit_ns"), obs.LatencyBounds()),
		mboxDepth:  reg.Gauge(l("qcommit_mailbox_depth")),
		flushWait:  reg.Histogram(l("qcommit_flush_release_wait_ns"), obs.LatencyBounds()),
	}
}

func (m *nodeMetrics) onBegin() {
	if m != nil {
		m.begun.Inc()
	}
}

func (m *nodeMetrics) onBeginAbort() {
	if m != nil {
		m.begunAbort.Inc()
	}
}

func (m *nodeMetrics) onCommit() {
	if m != nil {
		m.committed.Inc()
	}
}

func (m *nodeMetrics) onAbort() {
	if m != nil {
		m.aborted.Inc()
	}
}

func (m *nodeMetrics) onTermRound() {
	if m != nil {
		m.termRounds.Inc()
	}
}

// spanFinish is one deferred span completion: the coordinator's decision is
// final only once its WAL record is durable, so the Finish rides the flush
// job alongside the durability-gated sends.
type spanFinish struct {
	txn     types.TxnID
	outcome string
}
