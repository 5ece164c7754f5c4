package transport_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"qcommit/internal/msg"
	"qcommit/internal/transport/tcp"
	"qcommit/internal/types"
)

// rawPeer stands in for site 2 with a bare listener, so a test sees exactly
// the bytes an endpoint writes. conns yields each accepted connection; the
// receiver closes it.
func rawPeer(t *testing.T) (net.Listener, <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()
	return ln, conns
}

// rawEndpoint is site 1 with site 2 routed to ln.
func rawEndpoint(t *testing.T, ln net.Listener) *tcp.Endpoint {
	t.Helper()
	ep, err := tcp.New(1, "", map[types.SiteID]string{2: ln.Addr().String()}, tcp.Options{QueueLen: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	ep.Bind(func(msg.Envelope) {})
	t.Cleanup(func() { ep.Close() })
	return ep
}

// TestTCPStreamIsConcatenatedEnvelopes: a concurrent burst reaches the peer
// as exactly the concatenation of the messages' msg.AppendEnvelope frames,
// interleaved only at frame boundaries. The burst includes a VoteReq whose
// writeset is larger than any warm scratch buffer.
func TestTCPStreamIsConcatenatedEnvelopes(t *testing.T) {
	ln, conns := rawPeer(t)
	ep := rawEndpoint(t, ln)

	big := make(types.Writeset, 4096)
	for i := range big {
		big[i] = types.Update{Item: types.ItemID(fmt.Sprintf("item-%05d", i)), Value: int64(i) << 20}
	}
	var envs []msg.Envelope
	for i := 0; i < 300; i++ {
		txn := types.TxnID(i + 1)
		var m msg.Message
		switch i % 4 {
		case 0:
			m = msg.VoteReq{Txn: txn, Coord: 1, Participants: []types.SiteID{1, 2, 3}, Writeset: types.Writeset{{Item: "x", Value: int64(i)}}}
		case 1:
			m = msg.VoteResp{Txn: txn, Vote: types.VoteYes}
		case 2:
			m = msg.StateReq{Txn: txn, Coord: 1, Epoch: uint32(i)}
		default:
			m = msg.Commit{Txn: txn}
		}
		if i == 150 {
			m = msg.VoteReq{Txn: txn, Coord: 1, Participants: []types.SiteID{1, 2}, Writeset: big}
		}
		envs = append(envs, msg.Envelope{From: 1, To: 2, Msg: m})
	}
	var want [][]byte
	total := 0
	for _, env := range envs {
		f, err := msg.AppendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
		total += len(f)
	}

	const senders = 6
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(envs); i += senders {
				ep.Send(envs[i])
			}
		}(s)
	}
	wg.Wait()

	var conn net.Conn
	select {
	case conn = <-conns:
	case <-time.After(5 * time.Second):
		t.Fatal("endpoint never dialled the peer")
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	stream := make([]byte, total)
	if _, err := io.ReadFull(conn, stream); err != nil {
		t.Fatalf("read %d-byte stream: %v", total, err)
	}

	var got [][]byte
	for rest := stream; len(rest) > 0; {
		n, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < n {
			t.Fatalf("stream breaks mid-frame after %d frames", len(got))
		}
		got = append(got, rest[:k+int(n)])
		rest = rest[k+int(n):]
	}
	byBytes := func(fs [][]byte) {
		sort.Slice(fs, func(i, j int) bool { return bytes.Compare(fs[i], fs[j]) < 0 })
	}
	byBytes(got)
	byBytes(want)
	if len(got) != len(want) {
		t.Fatalf("stream carries %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d on the wire is not any AppendEnvelope frame: %x", i, got[i])
		}
	}
	// The writer counts a batch after its Write returns, which can trail
	// the peer's read.
	deadline := time.Now().Add(5 * time.Second)
	for ep.WriteStats().Frames < uint64(len(envs)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := ep.WriteStats(); s.Frames != uint64(len(envs)) || s.Shed != 0 {
		t.Errorf("stats = %+v, want %d frames and no shed", s, len(envs))
	}
}

// TestTCPSendAllocs: with metrics off, Send to a remote peer marshals into
// the peer's scratch buffer and frames onto its queued stream, so a warm
// endpoint allocates nothing per call.
func TestTCPSendAllocs(t *testing.T) {
	ln, conns := rawPeer(t)
	ep := rawEndpoint(t, ln)
	env := msg.Envelope{From: 1, To: 2, Msg: msg.VoteReq{
		Txn: 9, Coord: 1, Participants: []types.SiteID{1, 2, 3},
		Writeset: types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}},
	}}
	for i := 0; i < 1000; i++ {
		ep.Send(env)
	}
	conn := <-conns
	defer conn.Close()
	go io.Copy(io.Discard, conn)
	if allocs := testing.AllocsPerRun(1000, func() { ep.Send(env) }); allocs != 0 {
		t.Errorf("Send allocates %v times per call, want 0", allocs)
	}
}

// readFrame reads one envelope from the next connection conns yields.
func readFrame(t *testing.T, conns <-chan net.Conn) (net.Conn, msg.Envelope) {
	t.Helper()
	var conn net.Conn
	select {
	case conn = <-conns:
	case <-time.After(5 * time.Second):
		t.Fatal("endpoint never dialled the peer")
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := msg.ReadEnvelope(conn)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return conn, env
}

// TestTCPRedialsAPeerThatHungUp: when the peer closes the connection (its
// process restarted), the next frame goes out on a fresh connection instead
// of into the dead one.
func TestTCPRedialsAPeerThatHungUp(t *testing.T) {
	ln, conns := rawPeer(t)
	ep := rawEndpoint(t, ln)
	ep.Send(msg.Envelope{From: 1, To: 2, Msg: msg.Commit{Txn: 1}})
	old, _ := readFrame(t, conns)
	old.Close()
	time.Sleep(100 * time.Millisecond) // let the hang-up reach the endpoint
	ep.Send(msg.Envelope{From: 1, To: 2, Msg: msg.Commit{Txn: 2}})
	if _, env := readFrame(t, conns); env.Msg != (msg.Commit{Txn: 2}) {
		t.Fatalf("first frame on the new connection = %v, want COMMIT TR2", env.Msg)
	}
}

// TestTCPSetPeersMovesPeer: SetPeers moves a peer the endpoint already
// writes to, and the next frame goes to the new address even though the old
// connection is still open.
func TestTCPSetPeersMovesPeer(t *testing.T) {
	ln, conns := rawPeer(t)
	ep := rawEndpoint(t, ln)
	ep.Send(msg.Envelope{From: 1, To: 2, Msg: msg.Commit{Txn: 1}})
	readFrame(t, conns)
	ln2, conns2 := rawPeer(t)
	ep.SetPeers(map[types.SiteID]string{2: ln2.Addr().String()})
	ep.Send(msg.Envelope{From: 1, To: 2, Msg: msg.Commit{Txn: 2}})
	if _, env := readFrame(t, conns2); env.Msg != (msg.Commit{Txn: 2}) {
		t.Fatalf("first frame at the new address = %v, want COMMIT TR2", env.Msg)
	}
}
