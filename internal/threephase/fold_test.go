package threephase

import (
	"testing"

	"qcommit/internal/msg"
	"qcommit/internal/protocoltest"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// suspectSets are the subsets of the cut-off sites {5, 6} the fold tests
// mark suspected.
var suspectSets = [][]types.SiteID{nil, {5}, {6}, {5, 6}}

// TestTerminatorReachesTheFold pins quorumcalc.Rule.Outcome — the analytic
// fold of the poll → classify → confirm → distribute ladder — against the
// automata themselves, with no engine in between: for every state vector
// over the four participants of one partition group (6⁴) and each of the four
// rule tables, one real Terminator polls real Participants over reliable
// in-order delivery and must reach exactly the outcome the fold predicts,
// without ever falling back to the election protocol. The transaction has two
// more participants, cut off in another group, so that quorums can be out of
// reach; copies and Skeen's site votes are weighted, so every quorum is a
// weighted sum rather than a head count.
//
// Each run is repeated with every subset of the cut-off sites suspected
// (suspectSets): suspicion may end the poll sooner, never change what it
// decides. With both suspected, the poll closes on the last reply from the
// group, before its collect timer fires.
func TestTerminatorReachesTheFold(t *testing.T) {
	participants := []types.SiteID{1, 2, 3, 4, 5, 6}
	sites := participants[:4] // the terminator's partition group
	asgn := voting.MustAssignment(
		voting.ItemConfig{Item: "x", R: 2, W: 4, Copies: []voting.Copy{
			{Site: 1, Votes: 2}, {Site: 2, Votes: 1}, {Site: 3, Votes: 1}, {Site: 5, Votes: 1}}},
		voting.Uniform("y", 2, 2, 3, 4, 6),
	)
	ws := types.Writeset{{Item: "x"}, {Item: "y"}}
	rules := []quorumcalc.Rule{
		quorumcalc.ThreePCRule(),
		quorumcalc.SkeenRule(map[types.SiteID]int{1: 3, 2: 1, 3: 1, 4: 2, 5: 2, 6: 1}, 6, 5),
		quorumcalc.TP1Rule(),
		quorumcalc.TP2Rule(),
	}
	uncertain := func(st types.State) bool {
		return st == types.StateWait || st == types.StatePC || st == types.StatePA
	}

	for _, rule := range rules {
		seen := map[types.Outcome]int{}
		for vec := 0; vec < 6*6*6*6; vec++ {
			states := make([]types.State, len(sites))
			var tally quorumcalc.Tally
			leader := -1 // the first uncertain participant runs the terminator
			anyC, anyA := false, false
			for i, n := 0, vec; i < len(sites); i, n = i+1, n/6 {
				states[i] = types.State(n % 6)
				tally.Add(sites[i], states[i])
				if leader < 0 && uncertain(states[i]) {
					leader = i
				}
				anyC = anyC || states[i] == types.StateCommitted
				anyA = anyA || states[i] == types.StateAborted
			}
			fold := rule.Over(quorumcalc.NewFrame(asgn, ws, participants))
			want := fold.Outcome(&tally)
			seen[want]++

			if leader < 0 {
				// Nobody waits for a decision, so nobody ever elects a
				// terminator: the group keeps what its terminal sites know.
				passive := types.OutcomeUnknown
				switch {
				case anyC:
					passive = types.OutcomeCommitted
				case anyA:
					passive = types.OutcomeAborted
				}
				if want != passive {
					t.Fatalf("%s %v: fold = %v without an uncertain site, want %v", rule.Name(), states, want, passive)
				}
				continue
			}

			for _, suspects := range suspectSets {
				envs := make([]*protocoltest.Env, len(sites))
				parts := make([]*Participant, len(sites))
				for i, s := range sites {
					envs[i] = protocoltest.New(s, asgn)
					parts[i] = NewParticipant(1, &wal.TxnImage{Txn: 1, State: states[i]}, false)
				}
				tenv := protocoltest.New(sites[leader], asgn)
				tenv.Suspects = suspects
				term := NewTerminator(1, ws, participants, 1, &quorumcalc.Quorums{Rule: rule})

				// deliver hands every message the terminator has sent to its
				// participant and the replies straight back, in order; what is
				// addressed outside the group is lost.
				sent := 0
				deliver := func() {
					for ; sent < len(tenv.Sends); sent++ {
						s := tenv.Sends[sent]
						i := int(s.To) - 1
						if i >= len(sites) {
							continue
						}
						before := len(envs[i].Sends)
						parts[i].OnMessage(tenv.SelfID, s.Msg, envs[i])
						for _, reply := range envs[i].Sends[before:] {
							term.OnMessage(s.To, reply.Msg, tenv)
						}
					}
				}
				term.Start(tenv)
				deliver()
				if len(suspects) == 2 && term.phase == tpCollect {
					t.Fatalf("%s %v: every unanswered site is suspected, yet the poll waits for its window", rule.Name(), states)
				}
				term.OnTimer(tokCollect, tenv)
				deliver()
				if !term.Finished() {
					term.OnTimer(tokConfirm, tenv)
					deliver()
				}

				got := types.OutcomeUnknown
				switch {
				case len(tenv.Blocked) > 0:
					got = types.OutcomeBlocked
				case len(tenv.TermReqs) > 0:
					t.Fatalf("%s %v suspects %v: terminator fell back to the election protocol; the fold says %v", rule.Name(), states, suspects, want)
				default:
					for _, s := range tenv.Sends {
						switch s.Msg.Kind() {
						case msg.KindCommit:
							got = types.OutcomeCommitted
						case msg.KindAbort:
							got = types.OutcomeAborted
						}
					}
				}
				if got != want {
					t.Fatalf("%s %v suspects %v: terminator reached %v, fold predicts %v", rule.Name(), states, suspects, got, want)
				}
				// Every participant that was waiting has been told: it holds the
				// group's outcome, or — blocked — is still waiting.
				for i, p := range parts {
					if !uncertain(states[i]) {
						continue
					}
					if end := p.State(); (got == types.OutcomeBlocked) != uncertain(end) ||
						(got != types.OutcomeBlocked && end != got.StateEquivalent()) {
						t.Fatalf("%s %v suspects %v: site %d ended in %v after outcome %v", rule.Name(), states, suspects, sites[i], end, got)
					}
				}
			}
		}
		if seen[types.OutcomeCommitted] == 0 || seen[types.OutcomeAborted] == 0 ||
			(seen[types.OutcomeBlocked] == 0) != (rule.Name() == "3PC-term") {
			t.Errorf("%s: outcome coverage %v", rule.Name(), seen)
		}
	}
}

// TestTerminatorReachesTheFoldInAnyOrder is TestTerminatorReachesTheFold with
// the network allowed to reorder: the terminator closes its windows on the
// reply that settles them, so which reply comes first must not matter. For
// every state vector, rule table and each of the 24 orders in which the four
// sites' replies can reach the terminator in a round, the outcome is the
// fold's, nobody falls back to the election protocol, and — 3PC's
// site-failure rule — COMMIT never leaves a try-commit round while a site
// that was sent PREPARE-TO-COMMIT has yet to acknowledge it. Each run is
// repeated for every subset of suspectSets, as in TestTerminatorReachesTheFold.
func TestTerminatorReachesTheFoldInAnyOrder(t *testing.T) {
	participants := []types.SiteID{1, 2, 3, 4, 5, 6}
	sites := participants[:4]
	asgn := voting.MustAssignment(
		voting.ItemConfig{Item: "x", R: 2, W: 4, Copies: []voting.Copy{
			{Site: 1, Votes: 2}, {Site: 2, Votes: 1}, {Site: 3, Votes: 1}, {Site: 5, Votes: 1}}},
		voting.Uniform("y", 2, 2, 3, 4, 6),
	)
	ws := types.Writeset{{Item: "x"}, {Item: "y"}}
	rules := []quorumcalc.Rule{
		quorumcalc.ThreePCRule(),
		quorumcalc.SkeenRule(map[types.SiteID]int{1: 3, 2: 1, 3: 1, 4: 2, 5: 2, 6: 1}, 6, 5),
		quorumcalc.TP1Rule(),
		quorumcalc.TP2Rule(),
	}
	var orders [][]int
	var permute func(prefix, rest []int)
	permute = func(prefix, rest []int) {
		if len(rest) == 0 {
			orders = append(orders, append([]int(nil), prefix...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			permute(append(prefix, rest[i]), next)
		}
	}
	permute(nil, []int{0, 1, 2, 3})

	for _, rule := range rules {
		threePC := rule.Name() == "3PC-term"
		early := 0
		for vec := 0; vec < 6*6*6*6; vec++ {
			states := make([]types.State, len(sites))
			var tally quorumcalc.Tally
			leader := -1
			for i, n := 0, vec; i < len(sites); i, n = i+1, n/6 {
				states[i] = types.State(n % 6)
				tally.Add(sites[i], states[i])
				if st := states[i]; leader < 0 && (st == types.StateWait || st == types.StatePC || st == types.StatePA) {
					leader = i
				}
			}
			if leader < 0 {
				continue // nobody to run a terminator
			}
			fold := rule.Over(quorumcalc.NewFrame(asgn, ws, participants))
			want := fold.Outcome(&tally)

			for _, suspects := range suspectSets {
				for _, order := range orders {
					envs := make([]*protocoltest.Env, len(sites))
					parts := make([]*Participant, len(sites))
					for i, s := range sites {
						envs[i] = protocoltest.New(s, asgn)
						parts[i] = NewParticipant(1, &wal.TxnImage{Txn: 1, State: states[i]}, false)
					}
					tenv := protocoltest.New(sites[leader], asgn)
					tenv.Suspects = suspects
					term := NewTerminator(1, ws, participants, 1, &quorumcalc.Quorums{Rule: rule})

					// deliver hands the terminator's sends to their participants
					// in send order and the replies of each such batch back in
					// this run's order; what is addressed outside the group is
					// lost. owing counts the PREPARE-TO-COMMITs not yet
					// acknowledged to the terminator.
					sent, owing := 0, 0
					deliver := func() {
						for sent < len(tenv.Sends) {
							batch := tenv.Sends[sent:]
							sent = len(tenv.Sends)
							replies := make([][]msg.Message, len(sites))
							for _, s := range batch {
								i := int(s.To) - 1
								if i >= len(sites) {
									continue
								}
								before := len(envs[i].Sends)
								parts[i].OnMessage(tenv.SelfID, s.Msg, envs[i])
								for _, reply := range envs[i].Sends[before:] {
									replies[i] = append(replies[i], reply.Msg)
									if reply.Msg.Kind() == msg.KindPCAck {
										owing++
									}
								}
							}
							for _, i := range order {
								for _, reply := range replies[i] {
									if reply.Kind() == msg.KindPCAck {
										owing--
									}
									term.OnMessage(sites[i], reply, tenv)
									if threePC && owing > 0 && term.Finished() {
										t.Fatalf("%s %v order %v suspects %v: COMMIT distributed with %d PREPARE-TO-COMMIT unacknowledged", rule.Name(), states, order, suspects, owing)
									}
								}
							}
						}
					}
					term.Start(tenv)
					deliver()
					if term.Finished() && len(suspects) < 2 {
						early++
					}
					if len(suspects) == 2 && term.phase == tpCollect {
						t.Fatalf("%s %v order %v: every unanswered site is suspected, yet the poll waits for its window", rule.Name(), states, order)
					}
					term.OnTimer(tokCollect, tenv)
					deliver()
					if !term.Finished() {
						term.OnTimer(tokConfirm, tenv)
						deliver()
					}

					got := types.OutcomeUnknown
					switch {
					case len(tenv.Blocked) > 0:
						got = types.OutcomeBlocked
					case len(tenv.TermReqs) > 0:
						t.Fatalf("%s %v order %v suspects %v: terminator fell back to the election protocol; the fold says %v", rule.Name(), states, order, suspects, want)
					default:
						for _, s := range tenv.Sends {
							switch s.Msg.Kind() {
							case msg.KindCommit:
								got = types.OutcomeCommitted
							case msg.KindAbort:
								got = types.OutcomeAborted
							}
						}
					}
					if got != want {
						t.Fatalf("%s %v order %v suspects %v: terminator reached %v, fold predicts %v", rule.Name(), states, order, suspects, got, want)
					}
				}
			}
		}
		// Two of the six participants never answer, so unless both are
		// suspected only a settled COMMIT can close a poll before its window
		// does; it must happen in those runs, which are the only ones counted.
		if early == 0 {
			t.Errorf("%s: no run finished before a window expired", rule.Name())
		}
	}
}
