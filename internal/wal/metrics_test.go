package wal

import (
	"path/filepath"
	"sync"
	"testing"

	"qcommit/internal/obs"
	"qcommit/internal/types"
)

// TestGroupLogBatchSizes pins the built-in batch-size histogram as the
// registry exports it: one sample per fsync, and the samples sum to every
// record appended.
func TestGroupLogBatchSizes(t *testing.T) {
	l, err := OpenGroupLog(filepath.Join(t.TempDir(), "g.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := obs.NewRegistry()
	l.RegisterMetrics(reg, 1)

	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tk := l.AppendAsync(Record{Type: RecVotedYes, Txn: types.TxnID(w*each + i + 1)})
				if err := l.WaitDurable(tk); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	h := obs.MergeHistograms(reg.Snapshot(), "qcommit_wal_batch_records")
	if h.Count != l.Fsyncs() {
		t.Errorf("batch samples = %d, fsyncs = %d; want one sample per fsync", h.Count, l.Fsyncs())
	}
	if got := uint64(h.Sum); got != writers*each {
		t.Errorf("batched records = %d, want %d", got, writers*each)
	}
}

// TestGroupLogRegisterMetrics pins mid-stream enablement: flush-wait and sync
// histograms only exist after RegisterMetrics, then record every append.
func TestGroupLogRegisterMetrics(t *testing.T) {
	l, err := OpenGroupLog(filepath.Join(t.TempDir(), "g.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if err := l.Append(Record{Type: RecVotedYes, Txn: 1}); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	l.RegisterMetrics(reg, 7)
	const n = 10
	for i := 0; i < n; i++ {
		if err := l.Append(Record{Type: RecCommit, Txn: types.TxnID(i + 2)}); err != nil {
			t.Fatal(err)
		}
	}

	snaps := reg.Snapshot()
	if h := obs.MergeHistograms(snaps, "qcommit_wal_flush_wait_ns"); h.Count != n {
		t.Errorf("flush-wait samples = %d, want %d (pre-registration append must not count)", h.Count, n)
	}
	if h := obs.MergeHistograms(snaps, "qcommit_wal_sync_ns"); h.Count == 0 {
		t.Error("no sync-duration samples after RegisterMetrics")
	}
	if got := obs.SumCounters(snaps, "qcommit_wal_fsyncs_total"); got != l.Fsyncs() {
		t.Errorf("exported fsyncs = %d, want %d", got, l.Fsyncs())
	}
	if h := obs.MergeHistograms(snaps, "qcommit_wal_batch_records"); h.Count != l.Fsyncs() {
		t.Errorf("exported batch samples = %d, want %d", h.Count, l.Fsyncs())
	}
}
