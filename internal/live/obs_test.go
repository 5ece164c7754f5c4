package live

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/obs"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// TestLiveObserverRecordsCommitPath runs a few transactions through an
// observed cluster (group WAL so the async flush path is exercised) and pins
// that every layer's instrumentation moved: txn counters, the coordinator
// commit-latency histogram, lock holds, WAL batch/flush-wait/sync samples,
// the flusher's release wait, and a complete sampled span carrying the
// WAL-durable stage.
func TestLiveObserverRecordsCommitPath(t *testing.T) {
	ob := &obs.Observer{
		Registry: obs.NewRegistry(),
		Spans:    obs.NewSpans(1, 64, 42), // sample everything
	}
	dir := t.TempDir()
	cl := New(Config{
		Assignment:  asgn(),
		Spec:        core.Spec{Variant: core.Protocol1},
		Seed:        1,
		TimeoutBase: 30 * time.Millisecond,
		WAL: func(id types.SiteID) wal.Log {
			l, err := wal.OpenGroupLog(filepath.Join(dir, fmt.Sprintf("site%d.wal", id)))
			if err != nil {
				t.Fatalf("site%d wal: %v", id, err)
			}
			return l
		},
		Obs: ob,
	})
	defer cl.Stop()

	const txns = 4
	for i := 0; i < txns; i++ {
		txn := cl.Begin(1, types.Writeset{{Item: "x", Value: int64(i)}})
		if got := cl.WaitOutcome(txn, 3*time.Second); got != types.OutcomeCommitted {
			t.Fatalf("txn %d outcome = %v", i, got)
		}
	}

	snaps := ob.Reg().Snapshot()
	if got := obs.SumCounters(snaps, "qcommit_txns_begun_total"); got != txns {
		t.Errorf("begun = %d, want %d", got, txns)
	}
	if got := obs.SumCounters(snaps, "qcommit_txns_committed_total"); got == 0 {
		t.Error("committed counter never moved")
	}
	if h := obs.MergeHistograms(snaps, "qcommit_commit_ns"); h.Count != txns {
		t.Errorf("commit latency samples = %d, want %d", h.Count, txns)
	}
	if h := obs.MergeHistograms(snaps, "qcommit_lock_hold_ns"); h.Count == 0 {
		t.Error("no lock-hold samples")
	}
	if h := obs.MergeHistograms(snaps, "qcommit_wal_batch_records"); h.Count == 0 {
		t.Error("no WAL batch samples")
	}
	if h := obs.MergeHistograms(snaps, "qcommit_wal_flush_wait_ns"); h.Count == 0 {
		t.Error("no WAL flush-wait samples")
	}
	if got := obs.SumCounters(snaps, "qcommit_wal_fsyncs_total"); got == 0 {
		t.Error("fsync counter func never scraped a sync")
	}
	if h := obs.MergeHistograms(snaps, "qcommit_wal_sync_ns"); h.Count == 0 {
		t.Error("no WAL sync-duration samples")
	}
	if h := obs.MergeHistograms(snaps, "qcommit_flush_release_wait_ns"); h.Count == 0 {
		t.Error("no flush-release-wait samples")
	}

	// Span Finish runs in the flusher after the outcome notification, so the
	// last transaction's close can trail WaitOutcome by a beat.
	var started, finished uint64
	for deadline := time.Now().Add(2 * time.Second); ; {
		started, finished = ob.Spanner().Stats()
		if finished == txns || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if started != txns || finished != txns {
		t.Fatalf("span stats = %d/%d, want %d/%d", started, finished, txns, txns)
	}
	stages := make(map[string]bool)
	span := ob.Spanner().Recent()[0]
	for _, ev := range span.Stages {
		stages[ev.Stage] = true
	}
	for _, want := range []string{obs.StageRecv, obs.StageVoteReq, obs.StageVote, obs.StageLocks, obs.StageDecision, obs.StageWALAppend, obs.StageWALDurable} {
		if !stages[want] {
			t.Errorf("span missing stage %q (got %v)", want, span.Stages)
		}
	}
	if span.Outcome != "committed" || span.EndNS == 0 {
		t.Errorf("span = outcome %q end %d, want finished committed span", span.Outcome, span.EndNS)
	}
}

// TestLiveObserverOffIsInert pins the zero-value contract: a cluster built
// without an Observer runs with every hook nil.
func TestLiveObserverOffIsInert(t *testing.T) {
	cl := New(Config{Assignment: asgn(), Spec: core.Spec{Variant: core.Protocol1}, Seed: 1, TimeoutBase: 30 * time.Millisecond})
	defer cl.Stop()
	txn := cl.Begin(1, types.Writeset{{Item: "x", Value: 1}})
	if got := cl.WaitOutcome(txn, 3*time.Second); got != types.OutcomeCommitted {
		t.Fatalf("outcome = %v", got)
	}
	n := cl.Node(1)
	if n.met != nil || n.spans != nil {
		t.Error("node carries observability handles without an Observer")
	}
}
