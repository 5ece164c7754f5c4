package wal

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"qcommit/internal/types"
)

func TestGroupLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	l, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range recs {
		if !recordsEqual(recs[i], want[i]) {
			t.Errorf("record %d: got %+v want %+v", i, recs[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A second open must replay the file identically.
	l2, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs2, _ := l2.Records()
	if len(recs2) != len(want) {
		t.Fatalf("reopen replays %d records, want %d", len(recs2), len(want))
	}
	for i := range recs2 {
		if !recordsEqual(recs2[i], want[i]) {
			t.Errorf("reopened record %d: got %+v want %+v", i, recs2[i], want[i])
		}
	}
}

func TestGroupLogConcurrentAppendsCoalesce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	l, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const appenders, perAppender = 16, 50
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				rec := Record{Type: RecVotedYes, Txn: types.TxnID(a*perAppender + i + 1)}
				if err := l.Append(rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	total := appenders * perAppender
	recs, _ := l.Records()
	if len(recs) != total {
		t.Fatalf("got %d records, want %d", len(recs), total)
	}
	fsyncs := l.Fsyncs()
	if fsyncs == 0 || fsyncs >= uint64(total) {
		t.Errorf("fsyncs = %d for %d concurrent appends: expected group commit to coalesce (0 < fsyncs < appends)", fsyncs, total)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify every acknowledged append survived.
	l2, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, _ = l2.Records()
	if len(recs) != total {
		t.Fatalf("reopened %d records, want %d", len(recs), total)
	}
}

func TestGroupLogAsyncTickets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	l, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	t1 := l.AppendAsync(Record{Type: RecBegin, Txn: 1})
	t2 := l.AppendAsync(Record{Type: RecVotedYes, Txn: 1})
	if t2 != t1+1 {
		t.Fatalf("tickets not dense: %d then %d", t1, t2)
	}
	if err := l.WaitDurable(t2); err != nil {
		t.Fatal(err)
	}
	if l.Durable() < t2 {
		t.Errorf("durable horizon %d below waited ticket %d", l.Durable(), t2)
	}
	recs, _ := l.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d durable records, want 2", len(recs))
	}
}

func TestGroupLogRecordsHidesUndurable(t *testing.T) {
	// Records must never surface a record whose batch has not been forced.
	// Closing immediately after AppendAsync forces the final flush; before
	// the flush the record must be invisible — we can't deterministically
	// pause the syncer, but we can at least pin that a ticket past the
	// durable horizon is not in Records.
	path := filepath.Join(t.TempDir(), "group.wal")
	l, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 100; i++ {
		l.AppendAsync(Record{Type: RecCommit, Txn: types.TxnID(i + 1)})
		recs, _ := l.Records()
		if Ticket(len(recs)) > l.Durable() {
			t.Fatalf("Records surfaced %d records with durable horizon %d", len(recs), l.Durable())
		}
	}
}

func TestGroupLogAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	l, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecBegin, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecCommit, Txn: 1}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestGroupLogTornTailSweep crashes a GroupLog file at every possible byte
// boundary: for each truncation point, recovery must yield a clean prefix of
// the appended sequence in order — no gaps, no reordering, no phantom
// records — and the log must accept appends again.
func TestGroupLogTornTailSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.wal")
	l, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const total = 12
	for i := 1; i <= total; i++ {
		if err := l.Append(Record{Type: RecVotedYes, Txn: types.TxnID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data); cut >= 0; cut -= 3 {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", cut))
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenGroupLog(torn)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		recs, _ := l2.Records()
		if len(recs) > total {
			t.Fatalf("cut %d: %d records recovered from %d appended", cut, len(recs), total)
		}
		for i, r := range recs {
			if r.Txn != types.TxnID(i+1) {
				t.Fatalf("cut %d: record %d has txn %d: recovery is not a clean prefix", cut, i, r.Txn)
			}
		}
		// The truncated log must keep working.
		if err := l2.Append(Record{Type: RecCommit, Txn: 999}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		l2.Close()
	}
}

// TestGroupLogKillRecovery is the crash-recovery pin for group commit: a
// child process appends concurrently through a GroupLog, reporting each
// ticket the moment its WaitDurable returns (i.e. the moment Append would
// have returned); the parent SIGKILLs it mid-stream, reopens the log, and
// asserts the durability ordering both ways:
//
//   - every append that RETURNED is recovered (durable means durable), and
//   - recovery surfaces a clean prefix in append order, so no record is
//     observable whose predecessors' appends had not been written — the
//     force-before-send invariant's foundation.
func TestGroupLogKillRecovery(t *testing.T) {
	if os.Getenv("WAL_KILL_CHILD") != "" {
		walKillChild()
		return
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "killed.wal")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestGroupLogKillRecovery$")
	cmd.Env = append(os.Environ(), "WAL_KILL_CHILD="+path)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Read acked tickets until we have enough to make the test meaningful,
	// then SIGKILL mid-batch.
	sc := bufio.NewScanner(out)
	maxAcked := uint64(0)
	acked := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		n, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			continue // test framework chatter
		}
		if n > maxAcked {
			maxAcked = n
		}
		acked++
		if acked >= 200 {
			break
		}
	}
	if acked < 200 {
		// The stream ended: the child exited on its own (its reason is on
		// stderr), so there is nothing to kill and the run proves nothing.
		t.Fatalf("child exited after %d acks: %v", acked, cmd.Wait())
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	l, err := OpenGroupLog(path)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer l.Close()
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	// Every acked ticket must be recovered: ticket t acked ⇒ records 1..t
	// durable ⇒ len(recs) >= maxAcked.
	if uint64(len(recs)) < maxAcked {
		t.Fatalf("recovered %d records but ticket %d was acknowledged before the kill", len(recs), maxAcked)
	}
	// And recovery is a clean prefix of the append order (the child appends
	// Txn == ticket): no phantom or out-of-order record survives.
	for i, r := range recs {
		if r.Txn != types.TxnID(i+1) {
			t.Fatalf("record %d recovered with txn %d: not a prefix of the append order", i, r.Txn)
		}
	}
}

// walKillChild is the killed process: concurrent appenders share one
// GroupLog, and every durable append prints its ticket. A single sequencer
// hands out txn IDs equal to the eventual ticket, so the parent can check
// prefix order. It runs until killed.
func walKillChild() {
	path := os.Getenv("WAL_KILL_CHILD")
	l, err := OpenGroupLog(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	var mu sync.Mutex
	var seq uint64
	w := bufio.NewWriter(os.Stdout)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Serialize the append calls so Txn == ticket, which is what
				// lets the parent check recovery is a prefix of append order.
				mu.Lock()
				seq++
				want := seq // read under mu: another appender may bump seq once it is released
				tk := l.AppendAsync(Record{Type: RecVotedYes, Txn: types.TxnID(want)})
				mu.Unlock()
				if uint64(tk) != want {
					fmt.Fprintln(os.Stderr, "child: ticket/seq mismatch")
					os.Exit(1)
				}
				if err := l.WaitDurable(tk); err != nil {
					return
				}
				mu.Lock()
				fmt.Fprintf(w, "%d\n", tk)
				w.Flush()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
