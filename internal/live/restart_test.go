package live

import (
	"testing"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/transport/tcp"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// TestLiveRestartQueriesBeforePulls pins the order a restarted node hands
// its frames to the transport: every outcome query before the first
// anti-entropy pull. The log holds an in-doubt transaction, whose queries
// the pulls must queue behind, not overtake onto the wire, where a long
// burst could fill a peer queue and shed the queries. One node is driven by
// hand, as in TestLiveCommitPublishedAfterApply.
func TestLiveRestartQueriesBeforePulls(t *testing.T) {
	trio := []types.SiteID{1, 2, 3}
	a := voting.MustAssignment(voting.Uniform("x", 2, 2, trio...), voting.Uniform("y", 2, 2, trio...))
	tr := &handTransport{}
	h := &hostCore{
		spec: core.Spec{Variant: core.Protocol1}, asgn: a,
		t:     time.Hour, // no protocol timer fires while the test runs
		start: time.Now(), tr: tr, notes: make(map[types.TxnID]*outcomeNote),
	}
	tracker := voting.NewTracker(a, voting.StrategyQuorum, nil)
	ws := types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}}
	tracker.CommitApplied(2, 1, ws) // both items were written: the restart pulls them
	log := wal.NewMemLog()
	for _, rec := range []wal.Record{
		{Type: wal.RecVotedYes, Txn: 6, Coord: 2, Participants: trio, Writeset: ws},
	} {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	n := newNode(1, h, tracker, log, nil)
	n.store.Init("x", 0)
	n.store.Init("y", 0)

	n.dispatch(msg.Envelope{Msg: restartMsg{}})
	n.finishEvent()
	for _, j := range n.flushQ {
		n.release(j)
	}
	queries, pulls := 0, 0
	for i, env := range tr.sent {
		switch env.Msg.(type) {
		case msg.OutcomeReq:
			queries++
			if pulls > 0 {
				t.Errorf("frame %d: OutcomeReq to site %d after %d CopyReq", i, env.To, pulls)
			}
		case msg.CopyReq:
			pulls++
		}
	}
	if queries != 2 || pulls != 4 {
		t.Errorf("restart sent %d OutcomeReq and %d CopyReq, want 2 (one per peer) and 4 (2 items x 2 peers)", queries, pulls)
	}
}

// TestServerRestartAsksPeers restarts one qcommitd-shaped Server on a log
// that leaves a transaction in W, while its two peers' logs hold the commit.
// The restarted site must learn the commit from its peers' answers, without
// a termination round of its own: T is long enough that its patience never
// runs out while the test waits.
func TestServerRestartAsksPeers(t *testing.T) {
	const (
		T   = 500 * time.Millisecond
		txn = types.TxnID(2<<32 | 1) // begun at site 2
	)
	trio := []types.SiteID{1, 2, 3}
	ws := types.Writeset{{Item: "k", Value: 7}}
	voted := wal.Record{Type: wal.RecVotedYes, Txn: txn, Coord: 2, Participants: trio, Writeset: ws}
	eps := make(map[types.SiteID]*tcp.Endpoint)
	addrs := make(map[types.SiteID]string)
	for _, id := range trio {
		ep, err := tcp.New(id, "", nil, tcp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eps[id], addrs[id] = ep, ep.Addr()
	}
	ob := &obs.Observer{Registry: obs.NewRegistry()}
	var servers []*Server
	defer func() {
		for _, s := range servers {
			s.Stop()
		}
	}()
	for _, id := range []types.SiteID{2, 3, 1} { // the restarted site last
		recs := []wal.Record{voted, {Type: wal.RecCommit, Txn: txn}}
		cfg := ServerConfig{Assignment: voting.MustAssignment(voting.Uniform("k", 2, 2, trio...)), Spec: core.Spec{Variant: core.Protocol1}, TimeoutBase: T}
		if id == 1 {
			recs = recs[:1]
			cfg.Obs = ob
		}
		log := wal.NewMemLog()
		for _, rec := range recs {
			if err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		cfg.WAL = log
		eps[id].SetPeers(addrs)
		s, err := NewServer(id, cfg, eps[id])
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	restarted := servers[2]
	start := time.Now()
	if o := restarted.WaitOutcome(txn, 2*T); o != types.OutcomeCommitted {
		t.Fatalf("restarted site reached %v after %v, want committed from its peers' answers", o, time.Since(start))
	}
	if v, _, ok := restarted.ReadItem("k"); !ok || v != 7 {
		t.Errorf("restarted site reads k = %d (ok=%v), want 7", v, ok)
	}
	if rounds := obs.SumCounters(ob.Reg().Snapshot(), "qcommit_term_rounds_total"); rounds != 0 {
		t.Errorf("the restarted site ran %d termination rounds, want 0", rounds)
	}
}

// TestServerRestartNeverReusesAnID: a coordinator that is a participant logs
// nothing of a transaction before its own vote, so a Server whose VOTE-REQ
// reached a peer, but whose own vote never happened, restarts without a
// record of that ID. It must still begin only higher IDs: a peer holding
// the old ID in W would take the new transaction's VOTE-REQ for a duplicate
// and re-send its yes vote, for the old writeset.
func TestServerRestartNeverReusesAnID(t *testing.T) {
	log := wal.NewMemLog()
	start := func() (*Server, *handTransport) {
		t.Helper()
		tr := &handTransport{}
		s, err := NewServer(1, ServerConfig{
			Assignment:  voting.MustAssignment(voting.Uniform("x", 2, 2, 1, 2)),
			TimeoutBase: time.Hour, // no protocol timer fires while the test runs
			WAL:         log,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return s, tr
	}
	ws := types.Writeset{{Item: "x", Value: 1}}
	s, tr := start()
	old := s.Begin(ws)
	for deadline := time.Now().Add(10 * time.Second); !tr.voteReqTo(2, old); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			s.Stop()
			t.Fatalf("no VOTE-REQ for %s reached the wire", old)
		}
	}
	s.Stop()
	recs, _ := log.Records()
	for _, r := range recs {
		if r.Txn == old {
			t.Fatalf("the log holds %v of %s; the restart below must find none", r.Type, old)
		}
	}
	s, _ = start()
	defer s.Stop()
	if next := s.Begin(ws); next <= old {
		t.Errorf("the restarted server began %s, not past %s, which a peer already holds", next, old)
	}
}

// heldLog is a MemLog whose records become durable only when a test says
// so, by raising durable: a GroupLog's fsync held back.
type heldLog struct {
	*wal.MemLog
	durable wal.Ticket
}

func (l *heldLog) Durable() wal.Ticket { return l.durable }

func (l *heldLog) WaitDurable(t wal.Ticket) error {
	if t > l.durable {
		return wal.ErrClosed // a hand-driven test releases only durable jobs
	}
	return nil
}

// TestLiveLeaseGatesEveryBeginOfItsBlock: a Server begins IDs faster than a
// LEASE is forced, so every Begin of a block whose LEASE is not yet durable
// must hold its VOTE-REQs back until it is, not only the Begin that
// appended it; otherwise a crash in that window leaves a peer holding an ID
// the log never leased, which a restart would issue again. One node is
// driven by hand on a log whose force the test holds back.
func TestLiveLeaseGatesEveryBeginOfItsBlock(t *testing.T) {
	tr := &handTransport{}
	h := &hostCore{
		spec:  core.Spec{Variant: core.Protocol1},
		asgn:  voting.MustAssignment(voting.Uniform("x", 2, 2, 1, 2)),
		t:     time.Hour, // no protocol timer fires while the test runs
		start: time.Now(), tr: tr, notes: make(map[types.TxnID]*outcomeNote),
	}
	log := &heldLog{MemLog: wal.NewMemLog()}
	n := newNode(1, h, nil, log, nil)
	n.store.Init("x", 0)
	begin := func(seq uint32) types.TxnID {
		txn := types.TxnID(1<<32 | uint64(seq))
		n.dispatch(msg.Envelope{From: 1, To: 1, Msg: beginMsg{txn: txn, ws: types.Writeset{{Item: "x", Value: 1}}, participants: []types.SiteID{1, 2}, lease: true}})
		n.finishEvent()
		return txn
	}

	first, second := begin(1), begin(2)
	if len(tr.sent) != 0 || len(n.flushQ) != 2 || log.Len() != 1 {
		t.Fatalf("two Begins before the LEASE is durable sent %d frames, queued %d flush jobs and logged %d records; want nothing sent, two jobs, one LEASE", len(tr.sent), len(n.flushQ), log.Len())
	}
	log.durable = wal.Ticket(log.Len())
	for _, j := range n.flushQ {
		n.release(j)
	}
	n.flushQ = nil
	if !tr.voteReqTo(2, first) || !tr.voteReqTo(2, second) {
		t.Fatalf("once the LEASE is durable both VOTE-REQs must leave; sent %v", tr.sent)
	}

	tr.sent = nil
	third := begin(3)
	if !tr.voteReqTo(2, third) || len(n.flushQ) != 0 {
		t.Fatalf("a Begin under a durable LEASE queued %d flush jobs and sent %v; want its VOTE-REQs at once", len(n.flushQ), tr.sent)
	}
}

// TestServerRestartResumesPastPreLeaseRecords: a log written before LEASE
// records existed names this site's IDs only in transaction records. A
// restart on it must still begin past them.
func TestServerRestartResumesPastPreLeaseRecords(t *testing.T) {
	old := types.TxnID(1<<32 | 7)
	log := wal.NewMemLog()
	ws := types.Writeset{{Item: "x", Value: 1}}
	if err := log.Append(wal.Record{Type: wal.RecBegin, Txn: old, Coord: 1, Participants: []types.SiteID{2}, Writeset: ws}); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(1, ServerConfig{
		Assignment:  voting.MustAssignment(voting.Uniform("x", 2, 2, 1, 2)),
		TimeoutBase: time.Hour, // no protocol timer fires while the test runs
		WAL:         log,
	}, &handTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if next := s.Begin(ws); next <= old {
		t.Errorf("the restarted server began %s, not past %s, which its log names", next, old)
	}
}

// TestServerRestartPresumesAbort: a restarted Server answers aborted for an
// ID it issued before the restart and has no record of, and keeps every
// other answer. The log holds one LEASE over the first block, a
// participant's VOTED-YES and a pure coordinator's BEGIN.
func TestServerRestartPresumesAbort(t *testing.T) {
	lease := types.TxnID(1<<32 | (idBlock - 1))
	voted, began := types.TxnID(1<<32|5), types.TxnID(1<<32|6)
	ws := types.Writeset{{Item: "x", Value: 1}}
	log := wal.NewMemLog()
	for _, r := range []wal.Record{
		{Type: wal.RecLease, Txn: lease, Coord: 1},
		{Type: wal.RecVotedYes, Txn: voted, Coord: 1, Participants: []types.SiteID{1, 2}, Writeset: ws},
		{Type: wal.RecBegin, Txn: began, Coord: 1, Participants: []types.SiteID{2}, Writeset: ws},
	} {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewServer(1, ServerConfig{
		Assignment:  voting.MustAssignment(voting.Uniform("x", 2, 2, 1, 2)),
		TimeoutBase: time.Hour, // no protocol timer fires while the test runs
		WAL:         log,
	}, &handTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for _, tc := range []struct {
		name string
		txn  types.TxnID
		want types.Outcome
	}{
		{"an ID inside the lease", 1<<32 | 3, types.OutcomeAborted},
		{"the lease's last ID", lease, types.OutcomeAborted},
		{"an ID past the lease", lease + 1, types.OutcomeUnknown},
		{"another coordinator's ID", 2<<32 | 3, types.OutcomeUnknown},
		{"an ID with a VOTED-YES record", voted, types.OutcomeBlocked},
		{"a pure coordinator's BEGIN-only ID", began, types.OutcomeUnknown},
	} {
		if got := s.Outcome(tc.txn); got != tc.want {
			t.Errorf("%s (%s): Outcome = %v, want %v", tc.name, tc.txn, got, tc.want)
		}
		if tc.want == types.OutcomeAborted {
			if got := s.WaitOutcome(tc.txn, time.Second); got != tc.want {
				t.Errorf("%s (%s): WaitOutcome = %v, want %v at once", tc.name, tc.txn, got, tc.want)
			}
		}
	}
}
