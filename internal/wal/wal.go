// Package wal implements the write-ahead log that gives each site stable
// storage for commit-protocol state.
//
// The termination (i.e. commit or abort) of a transaction at a site is an
// irrevocable operation, and a participant that voted yes must remember that
// across crashes, so every record some restart rule reads is forced to the
// log before whatever it gates leaves the site:
//
//	a pure coordinator's BEGIN before its VOTE-REQs, VOTED-YES (with
//	writeset, participants, coordinator) before the yes vote, PC before
//	PC-ACK, PA before PA-ACK, COMMIT before the decision is acted on.
//
// VOTED-NO and ABORT are appended like any record but gate nothing: a site
// that restarts without one knows nothing of the transaction, is in q, and
// the transaction aborts (presumed abort). RecType.Forced is this rule in
// code; the site package doc states it as its durability table.
//
// Two implementations are provided, both AsyncLogs: MemLog is simulated
// stable storage (the harness keeps it across *simulated* crashes), whose
// tickets are durable on return from AppendAsync, and GroupLog is disk — an
// append-only file of CRC-protected records with torn-tail recovery, where
// concurrent appends coalesce into one write+fsync (group commit) and a lone
// appender pays exactly one fsync per Append.
// GroupLog holds only bytes in memory — the batch being built and the one
// being written — and its Records decodes the durable prefix of the file
// rather than an in-memory image.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"qcommit/internal/types"
)

// RecType discriminates log record types.
type RecType uint8

// Record types.
const (
	RecInvalid RecType = iota
	// RecBegin marks the start of a transaction at a pure coordinator (one
	// that holds no copies); a coordinator that is a participant writes none,
	// since its own VOTED-YES carries the same fields.
	RecBegin
	// RecVotedYes is forced before a participant sends its yes vote.
	RecVotedYes
	// RecVotedNo records a no vote. It is not forced: a site that lost it
	// has not voted, and says so.
	RecVotedNo
	// RecPC is forced before a participant acknowledges PREPARE-TO-COMMIT.
	RecPC
	// RecPA is forced before a participant acknowledges PREPARE-TO-ABORT.
	RecPA
	// RecCommit is forced before the transaction's updates are applied.
	RecCommit
	// RecAbort is appended when the transaction aborts here; it is not
	// forced (presumed abort).
	RecAbort
	// RecLease reserves a block of transaction IDs at a coordinator: Coord
	// is the site and Txn the highest ID of the block. It is forced before
	// any frame carries an ID of the block, so a restarted coordinator
	// resumes past every ID a peer may hold. It describes no transaction:
	// Replay skips it.
	RecLease
)

var recNames = map[RecType]string{
	RecBegin:    "BEGIN",
	RecVotedYes: "VOTED-YES",
	RecVotedNo:  "VOTED-NO",
	RecPC:       "PC",
	RecPA:       "PA",
	RecCommit:   "COMMIT",
	RecAbort:    "ABORT",
	RecLease:    "LEASE",
}

// forced holds the record types some restart rule reads (see Forced).
var forced = [...]bool{
	RecBegin: true, RecVotedYes: true, RecPC: true, RecPA: true, RecCommit: true, RecLease: true,
}

// Forced reports whether a record of type t must be durable before anything
// the event that appended it sends or publishes afterwards: whether some
// restart rule reads it to make a safe decision. The others (VOTED-NO,
// ABORT) mean at restart what their absence means.
func (t RecType) Forced() bool { return int(t) < len(forced) && forced[t] }

// String implements fmt.Stringer.
func (t RecType) String() string {
	if s, ok := recNames[t]; ok {
		return s
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// Record is one log entry. Writeset, Participants and Coord are populated on
// RecBegin and RecVotedYes records so recovery can reconstruct the
// transaction context; a RecLease carries only Coord and Txn.
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

// MemLog is an in-memory AsyncLog. In the simulator it models stable
// storage: the harness preserves the MemLog across simulated crashes while
// discarding all volatile automaton state. A record is durable once
// appended, so WaitDurable never waits. MemLog is not safe for concurrent
// use: one goroutine appends and reads it (WaitDurable touches no state, so
// any goroutine may call it).
type MemLog struct {
	recs []Record
}

var _ AsyncLog = (*MemLog)(nil)

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

// AppendAsync implements AsyncLog: the record is durable on return.
func (l *MemLog) AppendAsync(r Record) Ticket {
	_ = l.Append(r) // never fails
	return Ticket(len(l.recs))
}

// WaitDurable implements AsyncLog: every ticket AppendAsync returned is
// already durable.
func (l *MemLog) WaitDurable(Ticket) error { return nil }

// Durable implements AsyncLog.
func (l *MemLog) Durable() Ticket { return Ticket(len(l.recs)) }

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
}

// moves is the state each record type moves an undecided transaction to: a
// no vote aborts, VOTED-YES, PC and PA leave it in doubt. BEGIN, LEASE and
// unknown types leave it where it is.
var moves = [...]types.State{
	RecVotedYes: types.StateWait, RecVotedNo: types.StateAborted, RecPC: types.StatePC,
	RecPA: types.StatePA, RecCommit: types.StateCommitted, RecAbort: types.StateAborted,
}

// step is the protocol's state precedence for one record, the one fold
// Replay and View share: terminal states are irrevocable.
func step(cur types.State, t RecType) types.State {
	if cur.Terminal() || int(t) >= len(moves) || moves[t] == types.StateInitial {
		return cur
	}
	return moves[t]
}

// Replay folds a record sequence into per-transaction images, applying the
// protocol's state precedence (step). Lease records describe no transaction
// and make no image.
func Replay(recs []Record) map[types.TxnID]*TxnImage {
	images := make(map[types.TxnID]*TxnImage)
	for _, r := range recs {
		if r.Type == RecLease {
			continue
		}
		im, ok := images[r.Txn]
		if !ok {
			im = &TxnImage{Txn: r.Txn}
			images[r.Txn] = im
		}
		if im.State.Terminal() {
			continue // irrevocable
		}
		im.State = step(im.State, r.Type)
		if r.Type == RecBegin || r.Type == RecVotedYes {
			im.Coord = r.Coord
			im.Participants = append([]types.SiteID(nil), r.Participants...)
			im.Writeset = r.Writeset.Clone()
		}
	}
	return images
}

// View is Replay's state fold kept incrementally: fed every record a log
// receives, State answers what Replay(records)[txn].State would, without
// rereading the log. Only states other than q are stored. The zero View is
// empty and ready; a View is not safe for concurrent use.
type View struct {
	states map[types.TxnID]types.State
}

// Apply folds records into the view, in append order.
func (v *View) Apply(recs ...Record) {
	for i := range recs {
		cur := v.states[recs[i].Txn]
		if next := step(cur, recs[i].Type); next != cur {
			if v.states == nil {
				v.states = make(map[types.TxnID]types.State)
			}
			v.states[recs[i].Txn] = next
		}
	}
}

// State returns txn's folded state, StateInitial when no record moved it.
func (v *View) State(txn types.TxnID) types.State { return v.states[txn] }

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

// appendRecord appends r's on-disk frame to dst and returns the extended
// slice; dst's existing bytes are left intact. The length prefix is
// reserved first and patched once the body is in place, so the frame is
// built without an intermediate body buffer.
func appendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, byte(r.Type))
	dst = binary.AppendUvarint(dst, uint64(r.Txn))
	dst = binary.AppendVarint(dst, int64(r.Coord))
	dst = binary.AppendUvarint(dst, uint64(len(r.Participants)))
	for _, p := range r.Participants {
		dst = binary.AppendVarint(dst, int64(p))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Writeset)))
	for _, u := range r.Writeset {
		dst = binary.AppendUvarint(dst, uint64(len(u.Item)))
		dst = append(dst, u.Item...)
		dst = binary.AppendVarint(dst, u.Value)
	}
	body := dst[start+4:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(body)))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
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
// positioned for appending at the returned size.
func openLogFile(path string) (*os.File, []Record, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	recs, valid := scanRecords(io.NewSectionReader(f, 0, math.MaxInt64))
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return f, recs, valid, nil
}

// scanRecords reads records from r, returning the valid prefix and the byte
// offset of the end of the last valid record. A read error, torn frame or
// non-canonical body ends the prefix.
func scanRecords(r io.Reader) ([]Record, int64) {
	br := bufio.NewReader(r)
	var recs []Record
	var off int64
	var hdr [4]byte
	var body, canon []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return recs, off // clean EOF or torn header: stop here
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > 1<<20 {
			return recs, off // implausible length: torn
		}
		body = slices.Grow(body[:0], int(n)+4)[:n+4]
		if _, err := io.ReadFull(br, body); err != nil {
			return recs, off
		}
		sum := binary.BigEndian.Uint32(body[n:])
		if crc32.ChecksumIEEE(body[:n]) != sum {
			return recs, off
		}
		rec, err := decodeBody(body[:n])
		if err != nil {
			return recs, off
		}
		// Accept only what appendRecord writes: a CRC-valid body in a
		// non-canonical encoding (an overlong varint) was never appended here.
		canon = appendRecord(canon[:0], rec)
		if !bytes.Equal(canon[4:len(canon)-4], body[:n]) {
			return recs, off
		}
		recs = append(recs, rec)
		off += int64(4 + n + 4)
	}
}
