package msg

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"qcommit/internal/types"
)

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	ws := types.Writeset{{Item: "x", Value: -42}, {Item: "account/7", Value: 1 << 40}}
	parts := []types.SiteID{1, 2, 3, 8}
	return []Message{
		VoteReq{Txn: 7, Coord: 1, Participants: parts, Writeset: ws},
		VoteResp{Txn: 7, Vote: types.VoteNo},
		VoteResp{Txn: 7, Vote: types.VoteYes},
		PrepareToCommit{Txn: 7},
		PCAck{Txn: 7},
		PrepareToAbort{Txn: 7},
		PAAck{Txn: 7},
		Commit{Txn: 7},
		Abort{Txn: 7},
		Done{Txn: 7},
		StateReq{Txn: 7, Coord: 3, Epoch: 12},
		StateResp{Txn: 7, Epoch: 12, State: types.StatePA},
		ElectionCall{Txn: 7, Ballot: 1<<40 | 3, Candidate: 3},
		ElectionOK{Txn: 7, Ballot: 99},
		CoordAnnounce{Txn: 7, Ballot: 99, Coord: 2},
		OutcomeReq{Txn: 7},
	}
}

func TestCodecRoundTripAllKinds(t *testing.T) {
	for _, m := range allMessages() {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", m, err)
		}
		got, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("Unmarshal(%T): %v", m, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(got)) {
			t.Errorf("round trip %T:\n in: %#v\nout: %#v", m, m, got)
		}
	}
}

// normalize maps nil and empty slices to a canonical form for comparison.
func normalize(m Message) Message {
	if v, ok := m.(VoteReq); ok {
		if len(v.Participants) == 0 {
			v.Participants = nil
		}
		if len(v.Writeset) == 0 {
			v.Writeset = nil
		}
		return v
	}
	return m
}

func TestCodecChecksumDetectsCorruption(t *testing.T) {
	frame, err := Marshal(Commit{Txn: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := Unmarshal(bad); err == nil {
			// A flip in the CRC bytes themselves must also be caught.
			t.Errorf("corruption at byte %d went undetected", i)
		}
	}
}

func TestCodecShortFrame(t *testing.T) {
	for _, frame := range [][]byte{nil, {}, {1}, {1, 2, 3, 4}} {
		if _, err := Unmarshal(frame); err == nil {
			t.Errorf("frame %v should fail", frame)
		}
	}
}

func TestCodecUnknownKind(t *testing.T) {
	// Build a frame with an unknown kind byte but a valid checksum.
	frame, err := Marshal(Commit{Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Re-marshal manually: corrupting kind invalidates the CRC, which is
	// also acceptable; use Marshal on a fake type to hit the encoder error.
	type weird struct{ Message }
	if _, err := Marshal(weird{Commit{}}); err == nil {
		t.Error("marshalling an unknown concrete type should fail")
	}
	_ = frame
}

// TestKindNumbers pins the wire number of every Kind, so that a renumbering,
// which would make sites of different builds misread each other, fails here.
// 12 and 13 belonged to 2PC's retired DECISION-REQ/RESP and stay unassigned:
// a well-checksummed frame of either kind is refused as unknown, whatever
// body an older build gave it.
func TestKindNumbers(t *testing.T) {
	want := map[Kind]uint8{
		KindVoteReq: 1, KindVoteResp: 2, KindPrepareToCommit: 3, KindPCAck: 4,
		KindPrepareToAbort: 5, KindPAAck: 6, KindCommit: 7, KindAbort: 8,
		KindDone: 9, KindStateReq: 10, KindStateResp: 11,
		KindElectionCall: 14, KindElectionOK: 15, KindCoordAnnounce: 16,
		KindCopyReq: 17, KindCopyResp: 18, KindClientBegin: 19,
		KindClientBeginAck: 20, KindClientWait: 21, KindClientOutcome: 22,
		KindClientRead: 23, KindClientValue: 24, KindCtrlPartition: 25,
		KindCtrlAck: 26, KindOutcomeReq: 27,
	}
	for k, n := range want {
		if uint8(k) != n {
			t.Errorf("%s is kind %d on the wire, want %d", k, uint8(k), n)
		}
	}
	if len(kindNames) != len(want) {
		t.Errorf("%d named kinds, %d pinned: pin the new kind's number here", len(kindNames), len(want))
	}
	for _, frame := range retiredFrames() {
		if m, err := Unmarshal(frame); !errors.Is(err, ErrBadKind) {
			t.Errorf("kind %d frame %x: Unmarshal = %#v, %v; want ErrBadKind", frame[0], frame, m, err)
		}
		if _, named := kindNames[Kind(frame[0])]; named {
			t.Errorf("retired kind %d has a name", frame[0])
		}
	}
}

// retiredFrames are well-checksummed frames of the retired kinds 12 and 13,
// laid out as builds that still had DECISION-REQ (txn) and DECISION-RESP
// (txn, decision byte, uncommitted byte) encoded them; the last two carry an
// undefined decision.
func retiredFrames() [][]byte {
	var out [][]byte
	for _, body := range [][]byte{{12, 7}, {13, 7, 1, 0}, {13, 7, 0, 1}, {13, 7, 3, 0}, {13, 7, 99, 1}} {
		out = append(out, binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
	}
	return out
}

func TestCodecRejectsTruncatedBody(t *testing.T) {
	full, err := Marshal(VoteReq{Txn: 3, Coord: 1, Participants: []types.SiteID{1, 2}, Writeset: types.Writeset{{Item: "x", Value: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	// Remove bytes from the middle, fix up nothing: CRC must catch it.
	trunc := append([]byte(nil), full[:len(full)-6]...)
	trunc = append(trunc, full[len(full)-4:]...)
	if _, err := Unmarshal(trunc); err == nil {
		t.Error("truncated body went undetected")
	}
}

func TestCodecRoundTripPropertyVoteReq(t *testing.T) {
	f := func(txn uint64, coord int32, parts []int32, items []uint8, vals []int64) bool {
		req := VoteReq{Txn: types.TxnID(txn), Coord: types.SiteID(coord)}
		for _, p := range parts {
			req.Participants = append(req.Participants, types.SiteID(p))
		}
		for i, it := range items {
			v := int64(i)
			if i < len(vals) {
				v = vals[i]
			}
			req.Writeset = append(req.Writeset, types.Update{
				Item:  types.ItemID(string(rune('a' + it%26))),
				Value: v,
			})
		}
		frame, err := Marshal(req)
		if err != nil {
			return false
		}
		got, err := Unmarshal(frame)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(req), normalize(got))
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestCodecNeverPanicsOnRandomBytes feeds random frames to Unmarshal; it may
// reject them but must not panic.
func TestCodecNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		frame := make([]byte, n)
		rng.Read(frame)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %v: %v", frame, r)
				}
			}()
			_, _ = Unmarshal(frame)
		}()
	}
}

func TestTxnOfCoversAllKinds(t *testing.T) {
	for _, m := range allMessages() {
		if got := TxnOf(m); got != 7 {
			t.Errorf("TxnOf(%T) = %v, want 7", m, got)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, m := range allMessages() {
		if s := m.Kind().String(); s == "" || s[0] == 'K' {
			t.Errorf("%T kind string = %q", m, s)
		}
	}
	if KindInvalid.String() != "Kind(0)" {
		t.Errorf("invalid kind = %q", KindInvalid.String())
	}
}

func TestEnvelopeString(t *testing.T) {
	e := Envelope{From: 1, To: 2, Msg: Commit{Txn: 3}}
	if e.String() != "site1->site2 COMMIT" {
		t.Errorf("envelope string = %q", e.String())
	}
}

func TestCodecCopyMessages(t *testing.T) {
	for _, m := range []Message{
		CopyReq{Item: "widgets"},
		CopyResp{Item: "widgets", Value: -17, Version: 1 << 50},
	} {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", m, err)
		}
		got, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("Unmarshal(%T): %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("round trip %T: in %#v out %#v", m, m, got)
		}
	}
	if TxnOf(CopyReq{Item: "x"}) != 0 {
		t.Error("copy messages are not transaction-scoped")
	}
}

// undefinedEnumMessages are well-formed frames a hostile or corrupted peer
// could send: each carries a State or Vote byte just past, or far past, the
// defined values.
func undefinedEnumMessages() []Message {
	return []Message{
		StateResp{Txn: 7, Epoch: 3, State: types.StateAborted + 1},
		StateResp{Txn: 7, Epoch: 3, State: 200},
		VoteResp{Txn: 7, Vote: types.VoteNo + 1},
		VoteResp{Txn: 7, Vote: 255},
	}
}

// TestCodecRejectsUndefinedEnums: Unmarshal refuses undefined State and Vote
// values with ErrBadValue and still accepts the highest defined
// ones. A StateResp with State=200 used to be bucketed under no rule state
// yet counted as a responder on both sides of the termination ladder.
func TestCodecRejectsUndefinedEnums(t *testing.T) {
	for _, m := range undefinedEnumMessages() {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Unmarshal(frame); !errors.Is(err, ErrBadValue) {
			t.Errorf("Unmarshal(%#v) = %#v, %v; want ErrBadValue", m, got, err)
		}
	}
	for _, m := range []Message{
		StateResp{Txn: 7, Epoch: 3, State: types.StateAborted},
		VoteResp{Txn: 7, Vote: types.VoteNo},
	} {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Unmarshal(frame); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("Unmarshal(%#v) = %#v, %v", m, got, err)
		}
	}
}
