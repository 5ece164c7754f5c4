package threephase

import (
	"testing"

	"qcommit/internal/msg"
	"qcommit/internal/protocoltest"
	"qcommit/internal/types"
)

// TestParticipantPoisonsVoteAfterInitialReply: a participant in q that has
// answered a termination poll has promised the termination protocol it never
// voted — the abort-on-initial rules of every variant lean on that reply. A
// VOTE-REQ arriving afterwards must therefore not yield a yes vote.
func TestParticipantPoisonsVoteAfterInitialReply(t *testing.T) {
	t.Run("state-req", func(t *testing.T) {
		e := protocoltest.New(2, ex1())
		p := NewParticipant(1, nil, false)
		p.Start(e)
		p.OnMessage(3, msg.StateReq{Txn: 1, Epoch: 1}, e)
		if len(e.Aborted) != 1 {
			t.Fatalf("participant did not abort after initial-state reply (aborted %v)", e.Aborted)
		}
		// The poll reply itself still reports the polled state.
		if len(e.Sends) != 1 {
			t.Fatalf("sends = %v", e.SentKinds())
		}
		if m, ok := e.Sends[0].Msg.(msg.StateResp); !ok || m.State != types.StateInitial {
			t.Errorf("poll reply = %+v, want a StateResp reporting initial", e.Sends[0].Msg)
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
