package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"qcommit/internal/types"
)

func sampleRecords() []Record {
	ws := types.Writeset{{Item: "x", Value: 4}, {Item: "y", Value: -9}}
	parts := []types.SiteID{1, 2, 3}
	return []Record{
		{Type: RecBegin, Txn: 1, Coord: 1, Participants: parts, Writeset: ws},
		{Type: RecVotedYes, Txn: 1, Coord: 1, Participants: parts, Writeset: ws},
		{Type: RecPC, Txn: 1},
		{Type: RecCommit, Txn: 1},
		{Type: RecVotedYes, Txn: 2, Coord: 3, Participants: parts, Writeset: ws},
		{Type: RecPA, Txn: 2},
		{Type: RecAbort, Txn: 2},
		{Type: RecVotedNo, Txn: 3},
	}
}

func TestMemLogAppendAndRecords(t *testing.T) {
	l := NewMemLog()
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sampleRecords()) {
		t.Fatalf("got %d records, want %d", len(recs), len(sampleRecords()))
	}
	if l.Len() != len(recs) {
		t.Error("Len mismatch")
	}
}

// TestMemLogTicketsDurableOnReturn: MemLog's tickets are dense, and each is
// durable as soon as AppendAsync returns.
func TestMemLogTicketsDurableOnReturn(t *testing.T) {
	l := NewMemLog()
	for i, r := range sampleRecords() {
		tk := l.AppendAsync(r)
		if tk != Ticket(i+1) {
			t.Fatalf("ticket %d for record %d, want %d", tk, i, i+1)
		}
		if l.Durable() != tk {
			t.Fatalf("Durable() = %d after AppendAsync returned %d", l.Durable(), tk)
		}
		if err := l.WaitDurable(tk); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != len(sampleRecords()) {
		t.Errorf("Len = %d, want %d", l.Len(), len(sampleRecords()))
	}
}

func TestMemLogDeepCopies(t *testing.T) {
	l := NewMemLog()
	ws := types.Writeset{{Item: "x", Value: 1}}
	rec := Record{Type: RecVotedYes, Txn: 1, Writeset: ws, Participants: []types.SiteID{1}}
	_ = l.Append(rec)
	ws[0].Value = 99
	rec.Participants[0] = 42
	recs, _ := l.Records()
	if recs[0].Writeset[0].Value != 1 {
		t.Error("log shares writeset storage with caller")
	}
	if recs[0].Participants[0] != 1 {
		t.Error("log shares participants storage with caller")
	}
}

func TestReplayStates(t *testing.T) {
	images := Replay(sampleRecords())
	if img := images[1]; img.State != types.StateCommitted || img.Coord != 1 {
		t.Errorf("txn1 image = %+v, want committed at coordinator site1", img)
	}
	if img := images[2]; img.State != types.StateAborted {
		t.Errorf("txn2 state = %v, want A", img.State)
	}
	if img := images[3]; img.State != types.StateAborted {
		t.Errorf("txn3 (voted no) state = %v, want A", img.State)
	}
}

func TestReplayTerminalIsIrrevocable(t *testing.T) {
	recs := []Record{
		{Type: RecVotedYes, Txn: 1},
		{Type: RecCommit, Txn: 1},
		{Type: RecAbort, Txn: 1}, // must be ignored: termination is irrevocable
	}
	if st := Replay(recs)[1].State; st != types.StateCommitted {
		t.Errorf("state after commit-then-abort = %v, want C", st)
	}
}

// TestReplaySkipsLease: a lease record describes no transaction, so Replay
// makes no image of it and a View leaves the ID it names in q.
func TestReplaySkipsLease(t *testing.T) {
	lease := Record{Type: RecLease, Txn: 1<<32 | 4096, Coord: 1}
	if images := Replay([]Record{lease}); len(images) != 0 {
		t.Errorf("Replay(LEASE) = %v, want no image", images)
	}
	var v View
	v.Apply(lease)
	if st := v.State(lease.Txn); st != types.StateInitial {
		t.Errorf("View state after LEASE = %v, want q", st)
	}
}

func TestReplayKeepsContext(t *testing.T) {
	ws := types.Writeset{{Item: "x", Value: 7}}
	recs := []Record{
		{Type: RecVotedYes, Txn: 5, Coord: 2, Participants: []types.SiteID{2, 3}, Writeset: ws},
		{Type: RecPC, Txn: 5},
	}
	img := Replay(recs)[5]
	if img.State != types.StatePC || img.Coord != 2 || len(img.Participants) != 2 || len(img.Writeset) != 1 {
		t.Errorf("image = %+v", img)
	}
}

// fuzzRecords decodes two bytes per record: the type (every RecType, plus
// RecInvalid and an undefined value) and the txn (four IDs, so txns
// repeat and terminal records are followed by more).
func fuzzRecords(data []byte) []Record {
	recs := make([]Record, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		r := Record{Type: RecType(data[i] % 10), Txn: types.TxnID(data[i+1]%4 + 1)}
		if r.Type == RecBegin || r.Type == RecVotedYes {
			r.Coord = types.SiteID(data[i+1] >> 2)
			r.Participants = []types.SiteID{r.Coord, 9}
			r.Writeset = types.Writeset{{Item: "x", Value: int64(data[i])}}
		}
		recs = append(recs, r)
	}
	return recs
}

// FuzzReplay: a View fed any record sequence, in any chunk split, answers
// exactly Replay's state for every txn of every prefix it has seen (q for a
// txn absent from it), and Replay never panics.
func FuzzReplay(f *testing.F) {
	var sample []byte
	for _, r := range sampleRecords() {
		sample = append(sample, byte(r.Type), byte(r.Txn-1))
	}
	f.Add(sample, uint64(0))
	f.Add(sample, ^uint64(0))
	f.Add([]byte{byte(RecVotedYes), 0, byte(RecCommit), 0, byte(RecAbort), 0, byte(RecPA), 0}, uint64(0b101))
	f.Add([]byte{byte(RecPC), 1, byte(RecVotedYes), 1, byte(RecVotedNo), 1, byte(RecCommit), 1}, uint64(0b10))
	f.Add([]byte{0, 2, 8, 2, 9, 3, byte(RecBegin), 3}, uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, cuts uint64) {
		recs := fuzzRecords(data)
		var v View
		from := 0
		for i := range recs {
			// Bit i of cuts ends a chunk after record i; the last record
			// always ends one.
			if i < len(recs)-1 && cuts>>(i%64)&1 == 0 {
				continue
			}
			v.Apply(recs[from : i+1]...)
			from = i + 1
			images := Replay(recs[:from])
			for txn := types.TxnID(0); txn <= 5; txn++ {
				want := types.StateInitial
				if im := images[txn]; im != nil {
					want = im.State
				}
				if got := v.State(txn); got != want {
					t.Fatalf("after %d of %d records, View.State(%v) = %v, Replay says %v", from, len(recs), txn, got, want)
				}
			}
		}
	})
}

func TestFileLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site1.wal")
	l, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(recs) != len(want) {
		t.Fatalf("reopened %d records, want %d", len(recs), len(want))
	}
	for i := range recs {
		if !recordsEqual(recs[i], want[i]) {
			t.Errorf("record %d: got %+v want %+v", i, recs[i], want[i])
		}
	}
}

func recordsEqual(a, b Record) bool {
	if a.Type != b.Type || a.Txn != b.Txn || a.Coord != b.Coord {
		return false
	}
	if len(a.Participants) != len(b.Participants) || len(a.Writeset) != len(b.Writeset) {
		return false
	}
	for i := range a.Participants {
		if a.Participants[i] != b.Participants[i] {
			return false
		}
	}
	for i := range a.Writeset {
		if a.Writeset[i] != b.Writeset[i] {
			return false
		}
	}
	return true
}

func TestFileLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords()[:3] {
		_ = l.Append(r)
	}
	l.Close()

	// Simulate a crash mid-append: append garbage / a partial record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 50, 1, 2, 3}) // length claims 50 bytes, only 3 present
	f.Close()

	l2, err := OpenGroupLog(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer l2.Close()
	recs, _ := l2.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records after torn tail, want 3", len(recs))
	}
	// The log must accept appends again after truncation.
	if err := l2.Append(Record{Type: RecCommit, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	recs, _ = l3.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records after re-append, want 4", len(recs))
	}
}

// TestFileLogCorruptMiddleStops flips every byte of a four-record log in
// turn: recovery must keep exactly the records before the damaged one — a
// clean prefix, never a phantom or a skipped record.
func TestFileLogCorruptMiddleStops(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.wal")
	l, err := OpenGroupLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()[:4]
	var ends []int // ends[i] is the offset at which record i's frame ends
	off := 0
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		off += len(encodeRecord(r))
		ends = append(ends, off)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != ends[3] {
		t.Fatalf("log is %d bytes, want %d", len(data), ends[3])
	}
	flipped := filepath.Join(dir, "flipped.wal")
	for i := range data {
		bad := bytes.Clone(data)
		bad[i] ^= 0xFF
		if err := os.WriteFile(flipped, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenGroupLog(flipped)
		if err != nil {
			t.Fatalf("byte %d: open: %v", i, err)
		}
		recs, _ := l2.Records()
		l2.Close()
		hit := sort.SearchInts(ends, i+1) // the record whose frame holds byte i
		if len(recs) != hit {
			t.Fatalf("byte %d (record %d) flipped: recovered %d records, want the %d before it", i, hit, len(recs), hit)
		}
		for j := range recs {
			if !recordsEqual(recs[j], want[j]) {
				t.Fatalf("byte %d flipped: record %d = %+v, want %+v", i, j, recs[j], want[j])
			}
		}
	}
}

// TestGroupLogSequentialAppendsFsyncOnce pins what replacing the
// fsync-per-append FileLog with GroupLog rests on: a lone appender's every
// Append is exactly one write+fsync of its own.
func TestGroupLogSequentialAppendsFsyncOnce(t *testing.T) {
	l, err := OpenGroupLog(filepath.Join(t.TempDir(), "seq.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if got, appends := l.Fsyncs(), uint64(i+1); got != appends {
			t.Fatalf("%d sequential appends issued %d fsyncs, want one each", appends, got)
		}
	}
}

// FuzzOpenGroupLog feeds arbitrary bytes to recovery as a log file. Opening
// never panics; the recovered records re-encode byte for byte to a prefix of
// the input (recovery keeps exactly what a writer appended, then stops); and
// after one Append a reopen returns that prefix plus the new record.
func FuzzOpenGroupLog(f *testing.F) {
	var valid []byte
	for _, r := range sampleRecords()[:4] {
		valid = append(valid, encodeRecord(r)...)
	}
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(valid[:cut])
	}
	// A CRC-valid frame no writer produces: txn 1 as an overlong varint.
	body := []byte{byte(RecCommit), 0x81, 0x00, 0, 0, 0}
	odd := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	odd = binary.BigEndian.AppendUint32(append(odd, body...), crc32.ChecksumIEEE(body))
	f.Add(append(bytes.Clone(valid), odd...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenGroupLog(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		var prefix []byte
		for _, r := range recs {
			prefix = append(prefix, encodeRecord(r)...)
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("%d recovered records re-encode to %x, not a prefix of the input %x", len(recs), prefix, data)
		}
		extra := Record{Type: RecCommit, Txn: 7, Coord: 2}
		if err := l.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenGroupLog(path)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		got, _ := l2.Records()
		want := append(recs, extra)
		if len(got) != len(want) {
			t.Fatalf("reopen after append: %d records, want %d", len(got), len(want))
		}
		for i := range got {
			if !recordsEqual(got[i], want[i]) {
				t.Fatalf("reopen after append: record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// TestEncodeDecodeRecordProperty: encodeRecord/decodeBody round-trip for
// arbitrary records.
func TestEncodeDecodeRecordProperty(t *testing.T) {
	f := func(typ uint8, txn uint64, coord int32, parts []int32, items []uint8, vals []int64) bool {
		rec := Record{
			Type:  RecType(typ%7 + 1),
			Txn:   types.TxnID(txn),
			Coord: types.SiteID(coord),
		}
		for _, p := range parts {
			rec.Participants = append(rec.Participants, types.SiteID(p))
		}
		for i, it := range items {
			v := int64(i)
			if i < len(vals) {
				v = vals[i]
			}
			rec.Writeset = append(rec.Writeset, types.Update{Item: types.ItemID(string(rune('a' + it%26))), Value: v})
		}
		frame := encodeRecord(rec)
		// Strip length header and CRC footer to feed decodeBody.
		body := frame[4 : len(frame)-4]
		got, err := decodeBody(body)
		if err != nil {
			return false
		}
		return recordsEqual(rec, got)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestReplayIdempotent: replaying a log twice yields identical images
// (recovery is deterministic), and replay of any prefix then continuing
// matches full replay for terminal transactions.
func TestReplayIdempotent(t *testing.T) {
	recs := sampleRecords()
	a := Replay(recs)
	b := Replay(recs)
	if !reflect.DeepEqual(statesOf(a), statesOf(b)) {
		t.Error("replay not deterministic")
	}
}

func statesOf(m map[types.TxnID]*TxnImage) map[types.TxnID]types.State {
	out := make(map[types.TxnID]types.State, len(m))
	for k, v := range m {
		out[k] = v.State
	}
	return out
}

func TestRecTypeString(t *testing.T) {
	if RecVotedYes.String() != "VOTED-YES" || RecCommit.String() != "COMMIT" {
		t.Error("record type strings wrong")
	}
	if RecType(200).String() != "RecType(200)" {
		t.Error("unknown record type string wrong")
	}
}
