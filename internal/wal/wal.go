// Package wal implements the write-ahead log that gives each site stable
// storage for commit-protocol state.
//
// The termination (i.e. commit or abort) of a transaction at a site is an
// irrevocable operation, and a participant that voted yes must remember that
// across crashes, so every protocol state transition of consequence is forced
// to the log before the corresponding message is sent:
//
//	VOTED-YES (with writeset, participants, coordinator) before the yes vote,
//	PC before PC-ACK, PA before PA-ACK, COMMIT/ABORT before acting on them.
//
// Two implementations are provided: MemLog is simulated stable storage (the
// harness keeps it across *simulated* crashes), and GroupLog is disk — an
// append-only file of CRC-protected records with torn-tail recovery, where
// concurrent appends coalesce into one write+fsync (group commit) behind the
// AsyncLog interface and a lone appender pays exactly one fsync per Append.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"qcommit/internal/types"
)

// RecType discriminates log record types.
type RecType uint8

// Record types.
const (
	RecInvalid RecType = iota
	// RecBegin marks coordinator-side transaction start.
	RecBegin
	// RecVotedYes is forced before a participant sends its yes vote.
	RecVotedYes
	// RecVotedNo records a no vote (the participant may forget the
	// transaction afterwards; logged for audit).
	RecVotedNo
	// RecPC is forced before a participant acknowledges PREPARE-TO-COMMIT.
	RecPC
	// RecPA is forced before a participant acknowledges PREPARE-TO-ABORT.
	RecPA
	// RecCommit is forced before the transaction's updates are applied.
	RecCommit
	// RecAbort is forced before the transaction's locks are released on abort.
	RecAbort
)

var recNames = map[RecType]string{
	RecBegin:    "BEGIN",
	RecVotedYes: "VOTED-YES",
	RecVotedNo:  "VOTED-NO",
	RecPC:       "PC",
	RecPA:       "PA",
	RecCommit:   "COMMIT",
	RecAbort:    "ABORT",
}

// String implements fmt.Stringer.
func (t RecType) String() string {
	if s, ok := recNames[t]; ok {
		return s
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// Record is one log entry. Writeset, Participants and Coord are populated on
// RecBegin and RecVotedYes records so recovery can reconstruct the
// transaction context.
type Record struct {
	Type         RecType
	Txn          types.TxnID
	Coord        types.SiteID
	Participants []types.SiteID
	Writeset     types.Writeset
}

// Log is stable storage for protocol records.
type Log interface {
	// Append durably adds a record.
	Append(Record) error
	// Records returns all records in append order.
	Records() ([]Record, error)
}

// MemLog is an in-memory Log. In the simulator it models stable storage: the
// harness preserves the MemLog across simulated crashes while discarding all
// volatile automaton state.
type MemLog struct {
	recs []Record
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements Log.
func (l *MemLog) Append(r Record) error {
	// Deep-copy slices so later caller mutations cannot corrupt the "disk".
	r.Participants = append([]types.SiteID(nil), r.Participants...)
	r.Writeset = r.Writeset.Clone()
	l.recs = append(l.recs, r)
	return nil
}

// Records implements Log.
func (l *MemLog) Records() ([]Record, error) {
	out := make([]Record, len(l.recs))
	copy(out, l.recs)
	return out, nil
}

// Len returns the number of records.
func (l *MemLog) Len() int { return len(l.recs) }

// Scan calls fn for every record in append order without copying the log.
// The callback must not retain the pointer or mutate the record's slices;
// it exists so auditors that walk many large logs can avoid the per-call
// allocation of Records.
func (l *MemLog) Scan(fn func(*Record)) {
	for i := range l.recs {
		fn(&l.recs[i])
	}
}

// TxnImage is the per-transaction state reconstructed from a log.
type TxnImage struct {
	Txn          types.TxnID
	State        types.State
	Coord        types.SiteID
	Participants []types.SiteID
	Writeset     types.Writeset
	// WasCoordinator is true when a RecBegin record was seen.
	WasCoordinator bool
}

// Replay folds a record sequence into per-transaction images, applying the
// protocol's state precedence (terminal states win; PC/PA supersede W).
func Replay(recs []Record) map[types.TxnID]*TxnImage {
	images := make(map[types.TxnID]*TxnImage)
	get := func(txn types.TxnID) *TxnImage {
		im, ok := images[txn]
		if !ok {
			im = &TxnImage{Txn: txn, State: types.StateInitial}
			images[txn] = im
		}
		return im
	}
	for _, r := range recs {
		im := get(r.Txn)
		if im.State.Terminal() {
			continue // irrevocable
		}
		switch r.Type {
		case RecBegin:
			im.WasCoordinator = true
			im.Coord = r.Coord
			im.Participants = append([]types.SiteID(nil), r.Participants...)
			im.Writeset = r.Writeset.Clone()
		case RecVotedYes:
			im.State = types.StateWait
			im.Coord = r.Coord
			im.Participants = append([]types.SiteID(nil), r.Participants...)
			im.Writeset = r.Writeset.Clone()
		case RecVotedNo:
			im.State = types.StateAborted
		case RecPC:
			im.State = types.StatePC
		case RecPA:
			im.State = types.StatePA
		case RecCommit:
			im.State = types.StateCommitted
		case RecAbort:
			im.State = types.StateAborted
		}
	}
	return images
}

// --- file format ---
//
// Each record on disk is:
//
//	u32 length (big endian, body length)
//	body: type u8 | txn uvarint | coord varint | nParticipants uvarint,
//	      participants varint* | nWrites uvarint, (itemLen uvarint, item,
//	      value varint)*
//	u32 crc32(body)
//
// A torn final record (partial write at crash) is detected via length/CRC and
// truncated on open.

// File format errors.
var (
	ErrCorrupt = errors.New("wal: corrupt record")
)

func encodeRecord(r Record) []byte {
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

func decodeBody(body []byte) (Record, error) {
	var r Record
	if len(body) < 1 {
		return r, ErrCorrupt
	}
	r.Type = RecType(body[0])
	buf := body[1:]
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, false
		}
		buf = buf[n:]
		return v, true
	}
	sv := func() (int64, bool) {
		v, n := binary.Varint(buf)
		if n <= 0 {
			return 0, false
		}
		buf = buf[n:]
		return v, true
	}
	txn, ok := uv()
	if !ok {
		return r, ErrCorrupt
	}
	r.Txn = types.TxnID(txn)
	coord, ok := sv()
	if !ok {
		return r, ErrCorrupt
	}
	r.Coord = types.SiteID(coord)
	np, ok := uv()
	if !ok || np > uint64(len(buf))+1 {
		return r, ErrCorrupt
	}
	for i := uint64(0); i < np; i++ {
		p, ok := sv()
		if !ok {
			return r, ErrCorrupt
		}
		r.Participants = append(r.Participants, types.SiteID(p))
	}
	nw, ok := uv()
	if !ok || nw > uint64(len(buf))+1 {
		return r, ErrCorrupt
	}
	for i := uint64(0); i < nw; i++ {
		il, ok := uv()
		if !ok || il > uint64(len(buf)) {
			return r, ErrCorrupt
		}
		item := string(buf[:il])
		buf = buf[il:]
		val, ok := sv()
		if !ok {
			return r, ErrCorrupt
		}
		r.Writeset = append(r.Writeset, types.Update{Item: types.ItemID(item), Value: val})
	}
	if len(buf) != 0 {
		return r, ErrCorrupt
	}
	return r, nil
}

// openLogFile opens (creating if needed) the log file at path, scans its
// valid record prefix and truncates any torn tail, leaving the file
// positioned for appending.
func openLogFile(path string) (*os.File, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, valid, err := scanRecords(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, recs, nil
}

// scanRecords reads records from the start of f, returning the valid prefix
// and the byte offset of the end of the last valid record.
func scanRecords(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var recs []Record
	var off int64
	hdr := make([]byte, 4)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return recs, off, nil // clean EOF or torn header: stop here
		}
		n := binary.BigEndian.Uint32(hdr)
		if n > 1<<20 {
			return recs, off, nil // implausible length: torn
		}
		body := make([]byte, n+4)
		if _, err := io.ReadFull(f, body); err != nil {
			return recs, off, nil
		}
		sum := binary.BigEndian.Uint32(body[n:])
		if crc32.ChecksumIEEE(body[:n]) != sum {
			return recs, off, nil
		}
		rec, err := decodeBody(body[:n])
		if err != nil {
			return recs, off, nil
		}
		// Accept only what encodeRecord writes: a CRC-valid body in a
		// non-canonical encoding (an overlong varint) was never appended here.
		if frame := encodeRecord(rec); !bytes.Equal(frame[4:len(frame)-4], body[:n]) {
			return recs, off, nil
		}
		recs = append(recs, rec)
		off += int64(4 + n + 4)
	}
}
