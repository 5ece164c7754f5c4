package msg

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the datagram codec and the stream
// reader. Both sit on the network boundary in the tcp transport, so they
// must reject garbage with an error — never panic, never hang, never accept
// a frame a re-marshal cannot reproduce semantically.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range allWireMessages() {
		frame, err := Marshal(m)
		if err != nil {
			f.Fatalf("Marshal(%T): %v", m, err)
		}
		f.Add(frame)
		f.Add(AppendFrame(nil, 1, 2, frame))
	}
	for _, m := range undefinedEnumMessages() {
		frame, err := Marshal(m)
		if err != nil {
			f.Fatalf("Marshal(%T): %v", m, err)
		}
		f.Add(frame)
	}
	for _, frame := range retiredFrames() {
		f.Add(frame)
		f.Add(AppendFrame(nil, 1, 2, frame))
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := Unmarshal(data); err == nil {
			// Accepted frames must round-trip: a message the codec decodes
			// is one it can re-encode and decode to the same value.
			frame, err := Marshal(m)
			if err != nil {
				t.Fatalf("Unmarshal accepted %x but Marshal(%#v) failed: %v", data, m, err)
			}
			back, err := Unmarshal(frame)
			if err != nil {
				t.Fatalf("re-Unmarshal of %#v failed: %v", m, err)
			}
			_ = back
			// Accepted enumerations are defined ones: automata index tables
			// by them.
			switch v := m.(type) {
			case VoteResp:
				if !v.Vote.Valid() {
					t.Fatalf("accepted %#v", v)
				}
			case StateResp:
				if !v.State.Valid() {
					t.Fatalf("accepted %#v", v)
				}
			}
		}
		// The stream reader must terminate with a value or an error on any
		// finite input.
		if env, err := ReadEnvelope(bytes.NewReader(data)); err == nil {
			if _, err := Marshal(env.Msg); err != nil {
				t.Fatalf("ReadEnvelope accepted %x but Marshal(%#v) failed: %v", data, env.Msg, err)
			}
		}
	})
}
