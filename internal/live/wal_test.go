package live

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/obs"
	"qcommit/internal/transport/tcp"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// TestLiveGroupWALPipelinedCommit runs a cluster on real on-disk group-commit
// logs: every durability-gated send goes through the flusher, so this
// exercises the full async append → WaitDurable → deferred-send pipeline
// under concurrent transaction load, checks that group commit amortized
// (fewer fsyncs than records appended), and then checks every decision
// reached the disk.
func TestLiveGroupWALPipelinedCommit(t *testing.T) {
	dir := t.TempDir()
	const txns = 16
	specs := make([]voting.ItemConfig, txns)
	for i := range specs {
		specs[i] = voting.Uniform(types.ItemID(fmt.Sprintf("k%02d", i)), 2, 3, 1, 2, 3, 4)
	}
	logs := make(map[types.SiteID]*wal.GroupLog)
	var logMu sync.Mutex
	ob := &obs.Observer{Registry: obs.NewRegistry()}
	cl := New(Config{
		Assignment:  voting.MustAssignment(specs...),
		Spec:        core.Spec{Variant: core.Protocol1},
		Seed:        11,
		TimeoutBase: 50 * time.Millisecond,
		WAL: func(id types.SiteID) wal.Log {
			l, err := wal.OpenGroupLog(filepath.Join(dir, fmt.Sprintf("site%d.wal", id)))
			if err != nil {
				t.Fatalf("site%d wal: %v", id, err)
			}
			logMu.Lock()
			logs[id] = l
			logMu.Unlock()
			return l
		},
		Obs: ob,
	})
	// Disjoint writesets: every transaction must commit, and with 16 in
	// flight across 4 sites the group-commit batches stay deep.
	var wg sync.WaitGroup
	outcomes := make([]types.Outcome, txns)
	ids := make([]types.TxnID, txns)
	for i := 0; i < txns; i++ {
		item := types.ItemID(fmt.Sprintf("k%02d", i))
		coord := types.SiteID(i%4 + 1)
		ids[i] = cl.Begin(coord, types.Writeset{{Item: item, Value: int64(i)}})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = cl.WaitOutcome(ids[i], 10*time.Second)
		}(i)
	}
	wg.Wait()
	for i, o := range outcomes {
		if o != types.OutcomeCommitted {
			t.Errorf("txn %d outcome = %v, want committed", i, o)
		}
		if cl.Violated(ids[i]) {
			t.Errorf("txn %d violated atomicity", i)
		}
	}
	cl.Stop()
	for id, l := range logs {
		if err := l.Close(); err != nil {
			t.Errorf("close site%d wal: %v", id, err)
		}
	}
	// Group commit amortizes under concurrency: with 16 transactions in
	// flight, records share forces.
	snaps := ob.Reg().Snapshot()
	fsyncs := obs.SumCounters(snaps, "qcommit_wal_fsyncs_total")
	records := uint64(obs.MergeHistograms(snaps, "qcommit_wal_batch_records").Sum)
	if fsyncs == 0 || fsyncs >= records {
		t.Errorf("fsyncs = %d for %d records appended: group commit did not amortize", fsyncs, records)
	}
	// Reopen each log: the on-disk state must agree with the reported
	// outcomes (a committed transaction has its COMMIT record on every
	// participant log that decided).
	for id := range logs {
		l, err := wal.OpenGroupLog(filepath.Join(dir, fmt.Sprintf("site%d.wal", id)))
		if err != nil {
			t.Fatalf("reopen site%d: %v", id, err)
		}
		recs, _ := l.Records()
		images := wal.Replay(recs)
		for i, o := range outcomes {
			im := images[ids[i]]
			if im == nil {
				continue // this site was not a participant or never decided
			}
			if o == types.OutcomeCommitted && im.State == types.StateAborted {
				t.Errorf("site%d logged ABORT for committed txn %d", id, ids[i])
			}
			if o == types.OutcomeAborted && im.State == types.StateCommitted {
				t.Errorf("site%d logged COMMIT for aborted txn %d", id, ids[i])
			}
		}
		l.Close()
	}
}

// TestServerGroupWALRestartRecovery kills a Server-shaped deployment (two
// single-site processes in one test) after a commit and restarts one site
// from its on-disk WAL: the restarted server must report the outcome and
// serve the committed value — the real-deployment counterpart of the
// cluster's simulated crash/restart tests.
func TestServerGroupWALRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	a := voting.MustAssignment(voting.Uniform("k", 1, 2, 1, 2))
	open := func(id types.SiteID) *wal.GroupLog {
		l, err := wal.OpenGroupLog(filepath.Join(dir, fmt.Sprintf("site%d.wal", id)))
		if err != nil {
			t.Fatalf("open wal %d: %v", id, err)
		}
		return l
	}
	newEp := func(id types.SiteID, listen string, addrs map[types.SiteID]string) *tcp.Endpoint {
		ep, err := tcp.New(id, listen, addrs, tcp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	ep1 := newEp(1, "", nil)
	ep2 := newEp(2, "", nil)
	addrs := map[types.SiteID]string{1: ep1.Addr(), 2: ep2.Addr()}
	ep1.SetPeers(addrs)
	ep2.SetPeers(addrs)
	log1, log2 := open(1), open(2)
	cfg := ServerConfig{Assignment: a, Spec: core.Spec{Variant: core.Protocol1}, TimeoutBase: 50 * time.Millisecond}
	cfg1, cfg2 := cfg, cfg
	cfg1.WAL = log1
	cfg2.WAL = log2
	s1, err := NewServer(1, cfg1, ep1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(2, cfg2, ep2)
	if err != nil {
		t.Fatal(err)
	}
	txn := s1.Begin(types.Writeset{{Item: "k", Value: 77}})
	if o := s1.WaitOutcome(txn, 5*time.Second); o != types.OutcomeCommitted {
		t.Fatalf("outcome = %v, want committed", o)
	}
	// "Crash" site 1: stop the server and close its log, then restart from
	// the same file on the same address, so site 2 can reach it again.
	s1.Stop()
	log1.Close()

	log1b := open(1)
	ep1b := newEp(1, addrs[1], addrs)
	cfg1.WAL = log1b
	s1b, err := NewServer(1, cfg1, ep1b)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s1b.Stop()
		log1b.Close()
		s2.Stop()
		log2.Close()
	}()
	if o := s1b.Outcome(txn); o != types.OutcomeCommitted {
		t.Fatalf("recovered outcome = %v, want committed", o)
	}
	if v, ver, ok := s1b.ReadItem("k"); !ok || v != 77 {
		t.Fatalf("recovered k = %d (version %d, ok=%v), want 77", v, ver, ok)
	}

	// The restarted coordinator must not reuse a transaction ID from its
	// log: peers drop a VOTE-REQ for a txn they already decided, and the
	// old COMMIT would be read back as this write's outcome. Its first
	// attempt must commit: site 2 notices that the old process closed its
	// link and redials instead of writing its vote into the dead connection.
	txn2 := s1b.Begin(types.Writeset{{Item: "k", Value: 99}})
	if txn2 <= txn {
		t.Fatalf("restarted server issued transaction ID %v after %v", txn2, txn)
	}
	for _, s := range []*Server{s1b, s2} {
		if o := s.WaitOutcome(txn2, 5*time.Second); o != types.OutcomeCommitted {
			t.Fatalf("site %v: new outcome = %v, want committed", s.Self(), o)
		}
		if v, _, ok := s.ReadItem("k"); !ok || v != 99 {
			t.Fatalf("site %v: k = %d (ok=%v) after the new commit, want 99", s.Self(), v, ok)
		}
	}
}
