package live

import (
	"fmt"
	"sync"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/storage"
	"qcommit/internal/transport"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// ServerConfig parameterizes a single-site server.
type ServerConfig struct {
	// Assignment is the cluster-wide replica configuration; every process
	// of a deployment must be started with the same one.
	Assignment *voting.Assignment
	// Spec is the commit+termination protocol (the zero Spec is QC1).
	// NewServer returns its Validate error.
	Spec core.Spec
	// TimeoutBase is the protocol timeout unit T (zero means 50ms — sockets
	// pay real scheduling and kernel latency, so the default is far above
	// the inproc fabric's). NewServer refuses a negative one.
	TimeoutBase time.Duration
	// InitialValues seeds the store copies this site holds.
	InitialValues map[types.ItemID]int64
	// WAL optionally supplies this site's log (nil means a fresh MemLog,
	// durable only for the process lifetime; wal.GroupLog is the on-disk
	// one). A non-empty log triggers recovery on startup: terminal
	// transactions are replayed and in-doubt ones resume their participant
	// automata. Durability-gated output is released by a flusher, as in
	// Config.WAL. The caller retains ownership and closes the log after
	// Stop.
	WAL wal.AsyncLog
	// Obs optionally attaches an observability sink, as in Config.Obs. On a
	// Server the span recorder sees only this process's timeline, so traces
	// cover transactions this site coordinates.
	Obs *obs.Observer
}

// Server hosts ONE site of an assignment over a transport — the deployment
// shape of the qcommitd node binary, where every peer site is a separate
// process and only the wire connects them. It runs the exact same Node (and
// therefore the exact same protocol automata) as Cluster; the difference is
// the host: a Server has no visibility into peer stores or lock tables —
// it cannot answer the voting.Peers questions — so its node runs without a
// strategy tracker, i.e. under the static quorum strategy.
type Server struct {
	hostCore
	id   types.SiteID
	cfg  ServerConfig
	node *Node
	wg   sync.WaitGroup

	mu  sync.Mutex // guards seq
	seq uint32

	// resumed is the seq NewServer resumed past, and beginOnly those of its
	// IDs whose only record is a pure coordinator's BEGIN; both are
	// read-only once NewServer returns.
	resumed   uint32
	beginOnly map[types.TxnID]bool
}

// NewServer builds and starts the server for site id. It binds the transport
// and takes ownership of it (Stop closes it).
func NewServer(id types.SiteID, cfg ServerConfig, tr transport.Transport) (*Server, error) {
	if cfg.Assignment == nil {
		return nil, fmt.Errorf("live: ServerConfig.Assignment is required")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("live: ServerConfig.Spec: %w", err)
	}
	if cfg.TimeoutBase < 0 {
		return nil, fmt.Errorf("live: ServerConfig.TimeoutBase %v is negative", cfg.TimeoutBase)
	}
	if cfg.TimeoutBase == 0 {
		cfg.TimeoutBase = 50 * time.Millisecond
	}
	s := &Server{
		hostCore: hostCore{
			spec: cfg.Spec, asgn: cfg.Assignment, t: cfg.TimeoutBase, start: time.Now(),
			tr: tr, notes: make(map[types.TxnID]*outcomeNote),
		},
		id:        id,
		cfg:       cfg,
		beginOnly: make(map[types.TxnID]bool),
	}
	s.node = newNode(id, &s.hostCore, nil, cfg.WAL, cfg.Obs)
	for _, item := range cfg.Assignment.Items() {
		ic, _ := cfg.Assignment.Item(item)
		for _, cp := range ic.Copies {
			if cp.Site == id {
				s.node.store.Init(item, cfg.InitialValues[item])
			}
		}
	}
	// A restarted process recovers from its surviving WAL before serving:
	// terminal outcomes are reapplied, in-doubt transactions re-lock their
	// copies, resume the protocol and ask their peers for the outcome.
	if recs, err := s.node.log.Records(); err == nil && len(recs) > 0 {
		// Resume past every ID this site may have put on the wire: a LEASE
		// covering an ID is forced before any frame carries it (Node.lease).
		// A coordinator that is a participant logs nothing before its own
		// vote, so its transaction records alone cannot tell; they still
		// count below, for a log written before leases were.
		for _, r := range recs {
			if r.Type == wal.RecLease && r.Coord == id {
				s.seq = max(s.seq, uint32(r.Txn))
			}
		}
		// Unlike a simulated crash, a process restart loses the store, so
		// committed writesets are reapplied from the log before the usual
		// volatile-state recovery resumes in-doubt transactions.
		for _, im := range wal.Replay(recs) {
			if uint32(im.Txn>>32) == uint32(id) {
				s.seq = max(s.seq, uint32(im.Txn))
				if im.State == types.StateInitial { // BEGIN only: the view holds no state
					s.beginOnly[im.Txn] = true
				}
			}
			if im.State != types.StateCommitted {
				continue
			}
			for _, u := range im.Writeset {
				if s.node.store.Has(u.Item) {
					_ = s.node.store.Apply(u.Item, u.Value, uint64(im.Txn)+1)
				}
			}
		}
		s.node.leased = s.seq
		s.resumed = s.seq
		// The recovery is the node's first event, posted before the
		// transport is bound: every frame that arrives is handled after it,
		// and the answers to its queries find the delivery callback in place.
		s.node.post(event{env: &msg.Envelope{Msg: restartMsg{}}})
	}
	tr.Bind(s.deliver)
	s.node.run(&s.wg)
	return s, nil
}

// deliver is the transport's delivery callback.
func (s *Server) deliver(env msg.Envelope) {
	if env.To != s.id {
		return
	}
	s.node.post(event{env: &env})
}

// Self returns the hosted site.
func (s *Server) Self() types.SiteID { return s.id }

// Node exposes the hosted node (stores are safe to read cross-goroutine).
func (s *Server) Node() *Node { return s.node }

// Transport exposes the server's message fabric.
func (s *Server) Transport() transport.Transport { return s.tr }

// T is the protocol timeout base.
func (s *Server) T() time.Duration { return s.t }

// Begin submits a transaction coordinated by this site and returns its ID.
// IDs embed the coordinator site in the high half, so transactions begun at
// different processes never collide; a server restarted over its WAL
// continues past the highest ID it leased.
func (s *Server) Begin(ws types.Writeset) types.TxnID {
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	txn := types.TxnID(uint64(uint32(s.id))<<32 | uint64(seq))
	participants := s.cfg.Assignment.Participants(ws.Items())
	s.node.post(event{env: &msg.Envelope{From: s.id, To: s.id, Msg: beginMsg{txn: txn, ws: ws.Clone(), participants: participants, lease: true}}})
	return txn
}

// Outcome reads txn's fate from this site's WAL. An ID this site issued
// before a restart (at or below the seq NewServer resumed past) that the log
// holds no record of reads aborted, by presumed abort: a participating
// coordinator forces VOTED-YES before any PREPARE and a pure coordinator
// BEGIN before any VOTE-REQ, so such a transaction never passed the vote
// phase and commits nowhere. A BEGIN-only ID stays unknown until its outcome
// arrives.
func (s *Server) Outcome(txn types.TxnID) types.Outcome {
	o := walOutcome(s.node, txn)
	if o == types.OutcomeUnknown && uint32(txn>>32) == uint32(s.id) && uint32(txn) <= s.resumed && !s.beginOnly[txn] {
		return types.OutcomeAborted
	}
	return o
}

// WaitOutcome blocks until this site has decided txn — a commit durably, an
// abort without a force (presumed abort) — or the deadline passes
// (returning the local view at that point — Blocked for a site wedged
// mid-protocol, which is exactly the observable a blocked-2PC demonstration
// asserts on). The site publishes an outcome only after the
// event that decided it has finished, so when WaitOutcome returns committed,
// this site's store has the writeset. One site's view cannot split, so it
// never returns OutcomeSplit.
func (s *Server) WaitOutcome(txn types.TxnID, deadline time.Duration) types.Outcome {
	return s.waitOutcome(txn, deadline, s.snapshot)
}

// snapshot is the Server's outcome view for waitOutcome: settled once this
// site's published records are terminal.
func (s *Server) snapshot(txn types.TxnID) (types.Outcome, bool) {
	o := s.Outcome(txn)
	return o, o.StateEquivalent().Terminal()
}

// ReadItem returns this site's copy of item, if it holds one.
func (s *Server) ReadItem(item types.ItemID) (value int64, version uint64, ok bool) {
	if !s.node.store.Has(item) {
		return 0, 0, false
	}
	v, err := s.node.store.Read(item)
	if err != nil {
		return 0, 0, false
	}
	return v.Value, v.Version, true
}

// Store exposes the hosted site's store.
func (s *Server) Store() *storage.Store { return s.node.store }

// Stop shuts the node goroutine down and closes the transport.
func (s *Server) Stop() {
	s.node.post(event{stop: true})
	s.wg.Wait()
	s.tr.Close()
}

// walOutcome reads txn's fate from one node's WAL: terminal records map to
// their outcome, a surviving mid-protocol state (W/PC/PA) is Blocked. It
// looks txn up in the node's incrementally-maintained view of its published
// records (Node.view) rather than replaying the log, which would be
// O(history) per probe.
func walOutcome(n *Node, txn types.TxnID) types.Outcome {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	return n.view.State(txn).Outcome()
}
