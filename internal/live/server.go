package live

import (
	"fmt"
	"sync"
	"time"

	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/protocol"
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
	// Spec is the commit+termination protocol.
	Spec protocol.Spec
	// TimeoutBase is the protocol timeout unit T (default 50ms — sockets
	// pay real scheduling and kernel latency, so the default is far above
	// the inproc fabric's).
	TimeoutBase time.Duration
	// MaxTerminationRounds caps termination retries (default 3).
	MaxTerminationRounds int
	// InitialValues seeds the store copies this site holds.
	InitialValues map[types.ItemID]int64
	// WAL optionally supplies this site's log (nil means a fresh MemLog,
	// durable only for the process lifetime). A non-empty log triggers
	// recovery on startup: terminal transactions are replayed and
	// in-doubt ones resume their participant automata. Supplying a
	// wal.AsyncLog (e.g. wal.GroupLog) additionally enables commit
	// pipelining, as in Config.WAL. The caller retains ownership and
	// closes the log after Stop.
	WAL wal.Log
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
	id    types.SiteID
	cfg   ServerConfig
	start time.Time
	tr    transport.Transport
	node  *Node
	wg    sync.WaitGroup

	mu  sync.Mutex // guards seq
	seq uint32

	noteMu sync.Mutex
	notes  map[types.TxnID]*outcomeNote
}

var _ host = (*Server)(nil)

// NewServer builds and starts the server for site id. It binds the transport
// and takes ownership of it (Stop closes it).
func NewServer(id types.SiteID, cfg ServerConfig, tr transport.Transport) (*Server, error) {
	if cfg.Assignment == nil {
		return nil, fmt.Errorf("live: ServerConfig.Assignment is required")
	}
	if cfg.Spec == nil {
		return nil, fmt.Errorf("live: ServerConfig.Spec is required")
	}
	if cfg.TimeoutBase <= 0 {
		cfg.TimeoutBase = 50 * time.Millisecond
	}
	if cfg.MaxTerminationRounds <= 0 {
		cfg.MaxTerminationRounds = 3
	}
	s := &Server{
		id:    id,
		cfg:   cfg,
		start: time.Now(),
		tr:    tr,
		notes: make(map[types.TxnID]*outcomeNote),
	}
	s.node = newNode(id, s, nil, cfg.WAL, cfg.Obs)
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
	// copies and resume the protocol. Safe here — the node goroutine has
	// not started, and any sends the recovery defers are flushed normally.
	if recs, err := s.node.log.Records(); err == nil && len(recs) > 0 {
		// Unlike a simulated crash, a process restart loses the store, so
		// committed writesets are reapplied from the log before the usual
		// volatile-state recovery resumes in-doubt transactions.
		for _, im := range wal.Replay(recs) {
			if im.State != types.StateCommitted {
				continue
			}
			for _, u := range im.Writeset {
				if s.node.store.Has(u.Item) {
					_ = s.node.store.Apply(u.Item, u.Value, uint64(im.Txn)+1)
				}
			}
		}
		s.node.k.Recover(recs)
		s.node.finishEvent()
	}
	s.wg.Add(1)
	go s.node.loop(&s.wg)
	if s.node.alog != nil {
		s.wg.Add(1)
		go s.node.flusher(&s.wg)
	}
	tr.Bind(s.deliver)
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
func (s *Server) T() time.Duration { return s.cfg.TimeoutBase }

// Begin submits a transaction coordinated by this site and returns its ID.
// IDs embed the coordinator site in the high half, so transactions begun at
// different processes never collide.
func (s *Server) Begin(ws types.Writeset) types.TxnID {
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	txn := types.TxnID(uint64(uint32(s.id))<<32 | uint64(seq))
	participants := s.cfg.Assignment.Participants(ws.Items())
	s.node.post(event{env: &msg.Envelope{From: s.id, To: s.id, Msg: beginMsg{txn: txn, ws: ws.Clone(), participants: participants}}})
	return txn
}

// Outcome reads txn's fate from this site's WAL.
func (s *Server) Outcome(txn types.TxnID) types.Outcome {
	return walOutcome(s.node, txn)
}

// WaitOutcome blocks until this site has durably decided txn, or the
// deadline passes (returning the local aggregate at that point — Blocked for
// a site wedged mid-protocol, which is exactly the observable a blocked-2PC
// demonstration asserts on).
func (s *Server) WaitOutcome(txn types.TxnID, deadline time.Duration) types.Outcome {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		note := s.watch(txn)
		if o := s.Outcome(txn); o.StateEquivalent().Terminal() && o != types.OutcomeUnknown {
			s.unwatch(txn, note)
			return o
		}
		select {
		case <-note.ch:
			s.unwatch(txn, note)
		case <-timer.C:
			s.unwatch(txn, note)
			return s.Outcome(txn)
		}
	}
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

func (s *Server) watch(txn types.TxnID) *outcomeNote {
	s.noteMu.Lock()
	defer s.noteMu.Unlock()
	note := s.notes[txn]
	if note == nil {
		note = &outcomeNote{ch: make(chan struct{})}
		s.notes[txn] = note
	}
	note.waiters++
	return note
}

func (s *Server) unwatch(txn types.TxnID, note *outcomeNote) {
	s.noteMu.Lock()
	defer s.noteMu.Unlock()
	note.waiters--
	if note.waiters == 0 && s.notes[txn] == note {
		delete(s.notes, txn)
	}
}

// host accessors (see host.go): Server hosts exactly one node.

func (s *Server) spec() protocol.Spec            { return s.cfg.Spec }
func (s *Server) assignment() *voting.Assignment { return s.cfg.Assignment }
func (s *Server) timeoutBase() time.Duration     { return s.cfg.TimeoutBase }
func (s *Server) maxTermRounds() int             { return s.cfg.MaxTerminationRounds }
func (s *Server) startTime() time.Time           { return s.start }

func (s *Server) send(from, to types.SiteID, m msg.Message) {
	s.tr.Send(msg.Envelope{From: from, To: to, Msg: m})
}

func (s *Server) notifyOutcome(txn types.TxnID) {
	s.noteMu.Lock()
	if note, ok := s.notes[txn]; ok {
		close(note.ch)
		delete(s.notes, txn)
	}
	s.noteMu.Unlock()
}

// walOutcome reads txn's fate from one node's WAL: terminal records map to
// their outcome, a surviving mid-protocol state (W/PC/PA) is Blocked. It
// consults the node's incrementally-maintained durable-record view rather
// than replaying the log, which would be O(history) per probe.
func walOutcome(n *Node, txn types.TxnID) types.Outcome {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	return n.view[txn]
}
