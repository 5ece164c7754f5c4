package msg

import (
	"encoding/binary"
	"errors"
	"io"

	"qcommit/internal/types"
)

// Stream framing: the codec in codec.go is self-contained per message but
// carries no routing and no boundaries, so byte streams (TCP connections)
// wrap each message as
//
//	uvarint payload-length | payload
//	payload = varint From | varint To | Marshal(msg) frame
//
// The checksummed frame stays byte-identical to the datagram form, so a
// stream peer and the in-process fabric exercise the same codec.

// MaxFrame bounds one stream payload. Protocol messages are tiny (the
// largest carries a writeset); anything bigger is a corrupt or hostile
// length prefix and poisons the connection.
const MaxFrame = 1 << 20

// Stream framing errors.
var (
	ErrFrameTooLarge = errors.New("msg: stream frame exceeds MaxFrame")
	ErrEmptyFrame    = errors.New("msg: empty stream frame")
)

// AppendFrame appends the stream framing of an already-marshalled message
// frame routed from -> to. The routing header is built on the stack, so a
// dst with room to spare takes the frame without allocating.
func AppendFrame(dst []byte, from, to types.SiteID, frame []byte) []byte {
	var buf [2 * binary.MaxVarintLen64]byte
	hdr := binary.AppendVarint(buf[:0], int64(from))
	hdr = binary.AppendVarint(hdr, int64(to))
	dst = binary.AppendUvarint(dst, uint64(len(hdr)+len(frame)))
	dst = append(dst, hdr...)
	return append(dst, frame...)
}

// AppendEnvelope marshals env.Msg and appends its stream framing.
func AppendEnvelope(dst []byte, env Envelope) ([]byte, error) {
	frame, err := Marshal(env.Msg)
	if err != nil {
		return dst, err
	}
	return AppendFrame(dst, env.From, env.To, frame), nil
}

// WriteEnvelope writes one stream-framed envelope.
func WriteEnvelope(w io.Writer, env Envelope) error {
	buf, err := AppendEnvelope(nil, env)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// byteReader adapts an io.Reader for uvarint decoding without buffering
// past the current frame.
type byteReader struct {
	r io.Reader
	b [1]byte
}

func (br *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(br.r, br.b[:]); err != nil {
		return 0, err
	}
	return br.b[0], nil
}

// ReadEnvelope reads one stream-framed envelope. r should be buffered
// (e.g. a *bufio.Reader) for efficiency; only bytes belonging to the frame
// are consumed. io.EOF is returned unwrapped on a clean boundary.
func ReadEnvelope(r io.Reader) (Envelope, error) {
	var br io.ByteReader
	if b, ok := r.(io.ByteReader); ok {
		br = b
	} else {
		br = &byteReader{r: r}
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return Envelope{}, err
	}
	if n == 0 {
		return Envelope{}, ErrEmptyFrame
	}
	if n > MaxFrame {
		return Envelope{}, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Envelope{}, err
	}
	from, k := binary.Varint(payload)
	if k <= 0 {
		return Envelope{}, ErrTruncated
	}
	payload = payload[k:]
	to, k := binary.Varint(payload)
	if k <= 0 {
		return Envelope{}, ErrTruncated
	}
	m, err := Unmarshal(payload[k:])
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{From: types.SiteID(from), To: types.SiteID(to), Msg: m}, nil
}
