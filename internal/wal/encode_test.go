package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"testing"

	"qcommit/internal/types"
)

// encodeRecord is one record's frame on its own.
func encodeRecord(r Record) []byte { return appendRecord(nil, r) }

// referenceFrame is the record encoder as first written — body in its own
// buffer, then length, body and CRC copied into a frame — kept verbatim so
// the in-place appendRecord is pinned to the same bytes on disk.
func referenceFrame(r Record) []byte {
	body := make([]byte, 0, 64)
	body = append(body, byte(r.Type))
	body = binary.AppendUvarint(body, uint64(r.Txn))
	body = binary.AppendVarint(body, int64(r.Coord))
	body = binary.AppendUvarint(body, uint64(len(r.Participants)))
	for _, p := range r.Participants {
		body = binary.AppendVarint(body, int64(p))
	}
	body = binary.AppendUvarint(body, uint64(len(r.Writeset)))
	for _, u := range r.Writeset {
		body = binary.AppendUvarint(body, uint64(len(u.Item)))
		body = append(body, u.Item...)
		body = binary.AppendVarint(body, u.Value)
	}
	frame := make([]byte, 0, len(body)+8)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(body)))
	frame = append(frame, body...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	return frame
}

// TestAppendRecordMatchesReferenceFrame: appendRecord on a non-empty dst
// leaves dst's bytes intact and appends exactly the reference frame, for
// every record type, with no, one and several writeset items.
func TestAppendRecordMatchesReferenceFrame(t *testing.T) {
	parts := []types.SiteID{1, -2, 300}
	writesets := []types.Writeset{
		nil,
		{{Item: "x", Value: -1}},
		{{Item: "alpha", Value: 1 << 40}, {Item: "", Value: 0}, {Item: "k0042", Value: -7}},
	}
	prefix := []byte("existing bytes")
	for typ := RecBegin; typ <= RecLease; typ++ {
		for _, ws := range writesets {
			r := Record{Type: typ, Txn: 1 << 33, Coord: -5, Participants: parts, Writeset: ws}
			want := referenceFrame(r)
			for _, capacity := range []int{len(prefix), 4096} {
				dst := append(make([]byte, 0, capacity), prefix...)
				got := appendRecord(dst, r)
				if !bytes.Equal(got[:len(prefix)], prefix) {
					t.Fatalf("%v ws=%d: dst prefix clobbered: %q", typ, len(ws), got[:len(prefix)])
				}
				if !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("%v ws=%d cap=%d: appended %x, want %x", typ, len(ws), capacity, got[len(prefix):], want)
				}
			}
		}
	}
}

// TestGroupLogAppendAsyncAllocs: a warm log encodes into its double-buffered
// batch, so AppendAsync allocates nothing once the buffers have grown.
func TestGroupLogAppendAsyncAllocs(t *testing.T) {
	l, err := OpenGroupLog(filepath.Join(t.TempDir(), "allocs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := benchRecord()
	for i := 0; i < 1000; i++ {
		l.AppendAsync(rec)
	}
	if allocs := testing.AllocsPerRun(1000, func() { l.AppendAsync(rec) }); allocs != 0 {
		t.Errorf("AppendAsync allocates %v times per call, want 0", allocs)
	}
}

// TestGroupLogRecordsConcurrentWithClose runs Records from several readers
// while appenders run and Close lands. Every call returns a durable prefix
// of the log in ticket order (or an error); none panics or races.
func TestGroupLogRecordsConcurrentWithClose(t *testing.T) {
	l, err := OpenGroupLog(filepath.Join(t.TempDir(), "concurrent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	const appenders, perAppender, readers = 4, 200, 3
	var (
		mu       sync.Mutex
		byTicket = make(map[Ticket]Record)
		reads    [][]Record
		wg       sync.WaitGroup
	)
	stop := make(chan struct{})
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				r := Record{Type: RecVotedYes, Txn: types.TxnID(a*perAppender + i + 1), Coord: types.SiteID(a)}
				for j := 0; j <= i%3; j++ {
					r.Writeset = append(r.Writeset, types.Update{Item: types.ItemID(fmt.Sprintf("a%d-%d", a, j)), Value: int64(i)})
				}
				// A ticket issued after Close repeats next+1 and is never
				// durable, so overwriting its entry is harmless. The entry
				// is made before waiting: Close's final flush can make a
				// record durable after its waiter was released.
				tk := l.AppendAsync(r)
				mu.Lock()
				byTicket[tk] = r
				mu.Unlock()
				if l.WaitDurable(tk) != nil {
					return
				}
			}
		}(a)
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				recs, err := l.Records()
				if err == nil {
					mu.Lock()
					reads = append(reads, recs)
					mu.Unlock()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for l.Durable() < appenders*perAppender/2 {
		if err := l.WaitDurable(l.Durable() + 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if len(reads) == 0 {
		t.Fatal("no Records call succeeded")
	}
	for _, recs := range reads {
		for i, got := range recs {
			want, ok := byTicket[Ticket(i+1)]
			if !ok || !recordsEqual(got, want) {
				t.Fatalf("Records()[%d] = %+v, want ticket %d's record %+v (durable: %v)", i, got, i+1, want, ok)
			}
		}
	}
}

// TestGroupLogRecordsAfterClose: a closed log reopens its file and returns
// every record that became durable, in order.
func TestGroupLogRecordsAfterClose(t *testing.T) {
	l, err := OpenGroupLog(filepath.Join(t.TempDir(), "closed.wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs[:4] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs[4:] {
		l.AppendAsync(r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if Ticket(len(got)) != l.Durable() || len(got) != len(recs) {
		t.Fatalf("Records after Close = %d records, durable %d, appended %d", len(got), l.Durable(), len(recs))
	}
	for i := range got {
		if !recordsEqual(got[i], recs[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}
