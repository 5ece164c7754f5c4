package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"qcommit/internal/types"
)

// Wire format: every frame is
//
//	kind (1 byte) | body (varint-encoded fields) | crc32 of kind+body (4 bytes, big endian)
//
// Integers use unsigned varints; signed values use zig-zag varints; strings
// and slices are length-prefixed. The format is self-contained per message;
// framing across a byte stream is the transport's concern.

// Codec errors.
var (
	ErrShortFrame  = errors.New("msg: frame too short")
	ErrBadChecksum = errors.New("msg: checksum mismatch")
	ErrBadKind     = errors.New("msg: unknown message kind")
	ErrTruncated   = errors.New("msg: truncated body")
	ErrTrailing    = errors.New("msg: trailing bytes after body")
	// ErrBadValue reports a State or Vote byte outside the defined
	// values. Automata index tables by these, so a peer must not be able to
	// plant an undefined one.
	ErrBadValue = errors.New("msg: undefined enumeration value")
)

type writer struct{ buf []byte }

func (w *writer) u8(v uint8) { w.buf = append(w.buf, v) }
func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}
func (w *writer) varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) sites(ss []types.SiteID) {
	w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.varint(int64(s))
	}
}
func (w *writer) writeset(ws types.Writeset) {
	w.uvarint(uint64(len(ws)))
	for _, u := range ws {
		w.str(string(u.Item))
		w.varint(u.Value)
	}
}

type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) byte() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail(ErrTruncated)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *reader) sites() []types.SiteID {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > math.MaxInt32 || n > uint64(len(r.buf)) {
		// each site takes ≥1 byte, so n > len(buf) is certainly truncated
		r.fail(ErrTruncated)
		return nil
	}
	out := make([]types.SiteID, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, types.SiteID(r.varint()))
	}
	return out
}

func (r *reader) writeset() types.Writeset {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail(ErrTruncated)
		return nil
	}
	out := make(types.Writeset, 0, n)
	for i := uint64(0); i < n; i++ {
		item := r.str()
		val := r.varint()
		out = append(out, types.Update{Item: types.ItemID(item), Value: val})
	}
	return out
}

// Marshal encodes m into a checksummed frame.
func Marshal(m Message) ([]byte, error) {
	return AppendMarshal(make([]byte, 0, 64), m)
}

// AppendMarshal appends m's checksummed frame to dst and returns the
// extended slice; dst's existing bytes are left intact. On error dst is
// returned unchanged. A caller that reuses dst marshals without allocating.
func AppendMarshal(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	w := writer{buf: dst}
	w.u8(uint8(m.Kind()))
	switch v := m.(type) {
	case VoteReq:
		w.uvarint(uint64(v.Txn))
		w.varint(int64(v.Coord))
		w.sites(v.Participants)
		w.writeset(v.Writeset)
	case VoteResp:
		w.uvarint(uint64(v.Txn))
		w.u8(uint8(v.Vote))
	case PrepareToCommit:
		w.uvarint(uint64(v.Txn))
	case PCAck:
		w.uvarint(uint64(v.Txn))
	case PrepareToAbort:
		w.uvarint(uint64(v.Txn))
	case PAAck:
		w.uvarint(uint64(v.Txn))
	case Commit:
		w.uvarint(uint64(v.Txn))
	case Abort:
		w.uvarint(uint64(v.Txn))
	case Done:
		w.uvarint(uint64(v.Txn))
	case StateReq:
		w.uvarint(uint64(v.Txn))
		w.varint(int64(v.Coord))
		w.uvarint(uint64(v.Epoch))
	case StateResp:
		w.uvarint(uint64(v.Txn))
		w.uvarint(uint64(v.Epoch))
		w.u8(uint8(v.State))
	case ElectionCall:
		w.uvarint(uint64(v.Txn))
		w.uvarint(v.Ballot)
		w.varint(int64(v.Candidate))
	case ElectionOK:
		w.uvarint(uint64(v.Txn))
		w.uvarint(v.Ballot)
	case CoordAnnounce:
		w.uvarint(uint64(v.Txn))
		w.uvarint(v.Ballot)
		w.varint(int64(v.Coord))
	case CopyReq:
		w.str(string(v.Item))
	case CopyResp:
		w.str(string(v.Item))
		w.varint(v.Value)
		w.uvarint(v.Version)
	case ClientBegin:
		w.uvarint(v.Req)
		w.writeset(v.Writeset)
	case ClientBeginAck:
		w.uvarint(v.Req)
		w.uvarint(uint64(v.Txn))
	case ClientWait:
		w.uvarint(v.Req)
		w.uvarint(uint64(v.Txn))
		w.varint(int64(v.Timeout))
	case ClientOutcome:
		w.uvarint(v.Req)
		w.uvarint(uint64(v.Txn))
		w.u8(uint8(v.Outcome))
	case ClientRead:
		w.uvarint(v.Req)
		w.str(string(v.Item))
	case ClientValue:
		w.uvarint(v.Req)
		w.str(string(v.Item))
		w.varint(v.Value)
		w.uvarint(v.Version)
		if v.Found {
			w.u8(1)
		} else {
			w.u8(0)
		}
	case CtrlPartition:
		w.uvarint(v.Req)
		w.uvarint(uint64(len(v.Groups)))
		for _, g := range v.Groups {
			w.sites(g)
		}
	case CtrlAck:
		w.uvarint(v.Req)
	case OutcomeReq:
		w.uvarint(uint64(v.Txn))
	default:
		return dst, fmt.Errorf("%w: %T", ErrBadKind, m)
	}
	sum := crc32.ChecksumIEEE(w.buf[start:])
	return binary.BigEndian.AppendUint32(w.buf, sum), nil
}

// Unmarshal decodes a frame produced by Marshal, verifying its checksum.
func Unmarshal(frame []byte) (Message, error) {
	if len(frame) < 5 { // kind + crc
		return nil, ErrShortFrame
	}
	body, sumBytes := frame[:len(frame)-4], frame[len(frame)-4:]
	want := binary.BigEndian.Uint32(sumBytes)
	if crc32.ChecksumIEEE(body) != want {
		return nil, ErrBadChecksum
	}
	kind := Kind(body[0])
	r := &reader{buf: body[1:]}
	var m Message
	switch kind {
	case KindVoteReq:
		m = VoteReq{
			Txn:          types.TxnID(r.uvarint()),
			Coord:        types.SiteID(r.varint()),
			Participants: r.sites(),
			Writeset:     r.writeset(),
		}
	case KindVoteResp:
		v := VoteResp{Txn: types.TxnID(r.uvarint()), Vote: types.Vote(r.byte())}
		if !v.Vote.Valid() {
			r.fail(ErrBadValue)
		}
		m = v
	case KindPrepareToCommit:
		m = PrepareToCommit{Txn: types.TxnID(r.uvarint())}
	case KindPCAck:
		m = PCAck{Txn: types.TxnID(r.uvarint())}
	case KindPrepareToAbort:
		m = PrepareToAbort{Txn: types.TxnID(r.uvarint())}
	case KindPAAck:
		m = PAAck{Txn: types.TxnID(r.uvarint())}
	case KindCommit:
		m = Commit{Txn: types.TxnID(r.uvarint())}
	case KindAbort:
		m = Abort{Txn: types.TxnID(r.uvarint())}
	case KindDone:
		m = Done{Txn: types.TxnID(r.uvarint())}
	case KindStateReq:
		m = StateReq{
			Txn:   types.TxnID(r.uvarint()),
			Coord: types.SiteID(r.varint()),
			Epoch: uint32(r.uvarint()),
		}
	case KindStateResp:
		v := StateResp{Txn: types.TxnID(r.uvarint()), Epoch: uint32(r.uvarint()), State: types.State(r.byte())}
		if !v.State.Valid() {
			r.fail(ErrBadValue)
		}
		m = v
	case KindElectionCall:
		m = ElectionCall{
			Txn:       types.TxnID(r.uvarint()),
			Ballot:    r.uvarint(),
			Candidate: types.SiteID(r.varint()),
		}
	case KindElectionOK:
		m = ElectionOK{Txn: types.TxnID(r.uvarint()), Ballot: r.uvarint()}
	case KindCoordAnnounce:
		m = CoordAnnounce{
			Txn:    types.TxnID(r.uvarint()),
			Ballot: r.uvarint(),
			Coord:  types.SiteID(r.varint()),
		}
	case KindCopyReq:
		m = CopyReq{Item: types.ItemID(r.str())}
	case KindCopyResp:
		m = CopyResp{
			Item:    types.ItemID(r.str()),
			Value:   r.varint(),
			Version: r.uvarint(),
		}
	case KindClientBegin:
		m = ClientBegin{Req: r.uvarint(), Writeset: r.writeset()}
	case KindClientBeginAck:
		m = ClientBeginAck{Req: r.uvarint(), Txn: types.TxnID(r.uvarint())}
	case KindClientWait:
		m = ClientWait{
			Req:     r.uvarint(),
			Txn:     types.TxnID(r.uvarint()),
			Timeout: time.Duration(r.varint()),
		}
	case KindClientOutcome:
		txn := ClientOutcome{Req: r.uvarint(), Txn: types.TxnID(r.uvarint())}
		if len(r.buf) < 1 {
			r.fail(ErrTruncated)
		} else {
			txn.Outcome = types.Outcome(r.buf[0])
			r.buf = r.buf[1:]
		}
		m = txn
	case KindClientRead:
		m = ClientRead{Req: r.uvarint(), Item: types.ItemID(r.str())}
	case KindClientValue:
		v := ClientValue{
			Req:     r.uvarint(),
			Item:    types.ItemID(r.str()),
			Value:   r.varint(),
			Version: r.uvarint(),
		}
		if len(r.buf) < 1 {
			r.fail(ErrTruncated)
		} else {
			v.Found = r.buf[0] == 1
			r.buf = r.buf[1:]
		}
		m = v
	case KindCtrlPartition:
		cp := CtrlPartition{Req: r.uvarint()}
		n := r.uvarint()
		if n > uint64(len(r.buf)) {
			// each group takes ≥1 byte, so n > len(buf) is certainly truncated
			r.fail(ErrTruncated)
		} else {
			for i := uint64(0); i < n && r.err == nil; i++ {
				cp.Groups = append(cp.Groups, r.sites())
			}
		}
		m = cp
	case KindCtrlAck:
		m = CtrlAck{Req: r.uvarint()}
	case KindOutcomeReq:
		m = OutcomeReq{Txn: types.TxnID(r.uvarint())}
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, ErrTrailing
	}
	return m, nil
}
