package threephase

import (
	"testing"

	"qcommit/internal/msg"
	"qcommit/internal/protocoltest"
	"qcommit/internal/types"
)

// TestParticipantPoisonsVoteAfterInitialReply: a participant in q that has
// answered a termination poll (StateReq or DecisionReq) has promised the
// termination protocol it never voted — the paper's abort-on-initial rules
// lean on that reply. A VOTE-REQ arriving afterwards must therefore not
// yield a yes vote.
func TestParticipantPoisonsVoteAfterInitialReply(t *testing.T) {
	cases := []struct {
		name string
		poll msg.Message
	}{
		{"state-req", msg.StateReq{Txn: 1, Epoch: 1}},
		{"decision-req", msg.DecisionReq{Txn: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := protocoltest.New(2, ex1())
			p := NewParticipant(1, nil, false)
			p.Start(e)
			p.OnMessage(3, tc.poll, e)
			if len(e.Aborted) != 1 {
				t.Fatalf("participant did not abort after initial-state reply (aborted %v)", e.Aborted)
			}
			// The poll reply itself still reports the polled state.
			if len(e.Sends) != 1 {
				t.Fatalf("sends = %v", e.SentKinds())
			}
			switch m := e.Sends[0].Msg.(type) {
			case msg.StateResp:
				if m.State != types.StateInitial {
					t.Errorf("state reply = %v, want initial", m.State)
				}
			case msg.DecisionResp:
				if !m.Uncommitted {
					t.Error("decision reply not marked uncommitted")
				}
			}
			e.Reset()
			p.OnMessage(1, voteReq(1), e)
			for _, s := range e.Sends {
				if v, ok := s.Msg.(msg.VoteResp); ok && v.Vote == types.VoteYes {
					t.Error("participant voted yes after promising q")
				}
			}
		})
	}
}
