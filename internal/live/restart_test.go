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
// anti-entropy pull. The log holds a BEGIN-only transaction this site
// coordinated and takes part in, which Recover aborts — an append, so every
// later send of the event waits for the flush job — and then an in-doubt one,
// whose queries are among those deferred sends. The pulls must queue behind
// them, not overtake them straight onto the wire, where a long burst could
// fill a peer queue and shed the queries. One node is driven by hand, as in
// TestLiveCommitPublishedAfterApply.
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
		{Type: wal.RecBegin, Txn: 5, Coord: 1, Participants: trio, Writeset: ws},
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
	if o, _ := n.k.Outcome(5); o != types.OutcomeAborted {
		t.Fatalf("the BEGIN-only transaction is %v after recovery, want aborted", o)
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
