package live

import (
	"testing"
	"time"

	"qcommit/internal/msg"
	"qcommit/internal/transport/inproc"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// TestLiveInitialStateReplyRefusesLateVote is the live-cluster case of
// engine.TestInitialStateReplyRefusesLateVote: after a site answers a
// termination poll with "initial"/"uncommitted", a VOTE-REQ arriving later
// must not produce a yes vote — the termination protocol aborted on the
// strength of that reply.
func TestLiveInitialStateReplyRefusesLateVote(t *testing.T) {
	const (
		T   = 20 * time.Millisecond
		txn = types.TxnID(900)
	)
	participants := []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8}
	ws := types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}}
	for _, spec := range specs() {
		t.Run(spec.Name(), func(t *testing.T) {
			// Sites 2-7 voted yes in an earlier life; site 8 never heard of the
			// transaction (its VOTE-REQ is "still in flight"); the coordinator,
			// site 1, is down for good.
			logs := make(map[types.SiteID]wal.Log)
			for _, id := range participants[1:7] {
				logs[id] = wal.NewMemLog()
				_ = logs[id].Append(wal.Record{Type: wal.RecVotedYes, Txn: txn, Coord: 1, Participants: participants, Writeset: ws})
			}
			tap := &tapTransport{Transport: inproc.New(inproc.Options{MinDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, Seed: 3})}
			cl := New(Config{
				Assignment: asgn(), Spec: spec, TimeoutBase: T, Transport: tap,
				WAL: func(id types.SiteID) wal.Log { return logs[id] },
			})
			defer cl.Stop()
			cl.Crash(1)
			for _, id := range participants[1:7] {
				cl.Crash(id)
				cl.Restart(id) // recovery resumes the in-doubt participant
			}
			// Every protocol aborts: site 8's initial-state reply is abort
			// evidence for each termination rule (2PC cooperative included).
			deadline := time.Now().Add(5 * time.Second)
			for _, id := range participants[1:7] {
				for cl.OutcomeAt(id, txn) != types.OutcomeAborted {
					if time.Now().After(deadline) {
						t.Fatalf("site %d = %v, want aborted", id, cl.OutcomeAt(id, txn))
					}
					time.Sleep(time.Millisecond)
				}
			}
			// The late VOTE-REQ arrives at site 8 — the reply that answered the
			// poll must have poisoned the vote.
			cl.send(2, 8, msg.VoteReq{Txn: txn, Coord: 1, Participants: participants, Writeset: ws})
			var vote types.Vote
			tap.await(t, "site 8's vote", func(e msg.Envelope) bool {
				r, ok := e.Msg.(msg.VoteResp)
				if ok && e.From == 8 && r.Txn == txn {
					vote = r.Vote
				}
				return ok && e.From == 8 && r.Txn == txn
			})
			if vote != types.VoteNo {
				t.Errorf("site 8 voted %v after promising initial", vote)
			}
			if cl.Violated(txn) {
				t.Error("transaction terminated inconsistently")
			}
		})
	}
}
