package engine

import (
	"fmt"
	"strings"
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/sim"
	"qcommit/internal/trace"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// TestTerminationStageBudget decomposes, in units of T, the time a
// transaction stays in doubt after its coordinator dies — the number the
// coordcrash_term benchmark reports as one latency. The shape is the
// benchmark's: five sites, the item everywhere, majority quorums, every
// participant in W when the coordinator (each site in turn) crashes at time
// zero; the coordinator restarts once the survivors are quiet. The stage
// boundaries are read off the trace:
//
//	patience  3T      the survivors' silence tolerance, armed at the crash
//	election  0T      every survivor suspects the silent coordinator, so no
//	                  candidate waits for it to claim the role
//	collect   < 2T    ends on the last surviving participant's reply: the
//	                  poll does not wait for the suspect
//	confirm   < 2T    two hops: PREPARE out, the ack that confirms the quorum back
//	rejoin    ≤ 2T    two hops after the restart: the restarted site's
//	                  OUTCOME-REQ out, a survivor's COMMIT/ABORT back; it
//	                  runs no termination round of its own
//
// 3PC aborts straight from the tally (no participant is in PC), so it has no
// confirm stage; 2PC's poll finds everyone uncertain and blocks, restart or
// not. Delays are drawn per message from [0, T], so a hop is at most T.
func TestTerminationStageBudget(t *testing.T) {
	sites := []types.SiteID{1, 2, 3, 4, 5}
	specs := []core.Spec{
		{Variant: core.TwoPC},
		{Variant: core.ThreePC},
		core.Uniform(sites, 3, 3),
		{Variant: core.Protocol1},
		{Variant: core.Protocol2},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "\n%-7s %-7s %9s %9s %9s %9s %9s %9s\n", "proto", "crashed", "patience", "election", "collect", "confirm", "settled", "rejoin")

	for _, spec := range specs {
		for _, crashed := range sites {
			cl := New(Config{Seed: int64(crashed), Assignment: voting.MustAssignment(voting.Uniform("x", 3, 3, sites...)), Spec: spec})
			T := cl.T()
			inT := func(d sim.Time) float64 { return float64(d) / float64(T) }
			states := map[types.SiteID]types.State{}
			for _, s := range sites {
				states[s] = types.StateWait
			}
			txn := cl.SetupInterrupted(crashed, types.Writeset{{Item: "x", Value: 1}}, states)
			cl.Crash(crashed)
			cl.Run()

			// first returns the first annotation containing any of the
			// given fragments.
			first := func(fragments ...string) (trace.Event, bool) {
				for _, e := range cl.Recorder().Events() {
					for _, f := range fragments {
						if !e.IsMessage() && strings.Contains(e.Text, f) {
							return e, true
						}
					}
				}
				return trace.Event{}, false
			}
			must := func(what string, fragments ...string) trace.Event {
				e, ok := first(fragments...)
				if !ok {
					t.Fatalf("%s, site%d crashed: no %s in the trace:\n%s", spec.Name(), crashed, what, cl.Recorder().Ladder(nil))
				}
				return e
			}
			name := fmt.Sprintf("%s, site%d crashed", spec.Name(), crashed)

			patience := must("patience expiry", "invoking termination").At
			winner := must("election win", "wins for")
			won := winner.At
			polls := must("poll", "polls states").At
			tallied := must("poll close", "tallied").At
			if patience != sim.Time(3*T) {
				t.Errorf("%s: patience expired at %.2f T, want 3 T", name, inT(patience))
			}
			if won != patience || polls != won {
				t.Errorf("%s: election took %.2f T (poll %.2f T after it), want 0 T", name, inT(won-patience), inT(polls-won))
			}
			// The poll closes on the last survivor's reply, before its window
			// would have run out on the dead coordinator.
			var last sim.Time
			for _, e := range cl.Recorder().Events() {
				if e.IsMessage() && e.Label == "STATE-RESP" && e.To == winner.Site && e.At <= tallied {
					last = e.At
				}
			}
			closed, ok := first("collect closed: all unsuspected answered at 4/5")
			if !ok || closed.At != tallied || last != tallied || tallied-polls >= sim.Time(2*T) {
				t.Errorf("%s: collect took %.2f T (last reply at %.2f T, closed early=%v), want it to end on the last survivor's reply, under 2 T",
					name, inT(tallied-polls), inT(last-polls), ok)
			}

			row := fmt.Sprintf("%-7s site%-3d %9.2f %9.2f %9.2f", spec.Name(), crashed, inT(patience), inT(won-patience), inT(tallied-polls))
			if spec.Name() == "2PC" {
				for _, s := range sites {
					if o := cl.OutcomeAt(s, txn); o == types.OutcomeCommitted || o == types.OutcomeAborted {
						t.Errorf("%s: site%d terminated %v with every participant uncertain", name, s, o)
					}
				}
				cl.Restart(crashed)
				cl.Run()
				if o := cl.OutcomeAt(crashed, txn); o == types.OutcomeCommitted || o == types.OutcomeAborted {
					t.Errorf("%s: restarted coordinator terminated %v alone", name, o)
				}
				fmt.Fprintf(&table, "%s %9s %9s %9s\n", row, "-", "blocked", "blocked")
				continue
			}

			distributed := must("decision", "distributes").At
			confirm := distributed - tallied
			switch {
			case spec.Name() == "3PC" && confirm != 0:
				t.Errorf("%s: %.2f T between tally and ABORT, want none (nobody in PC)", name, inT(confirm))
			case spec.Name() != "3PC" && (confirm <= 0 || confirm >= sim.Time(2*T)):
				t.Errorf("%s: confirm took %.2f T, want two hops (under 2 T)", name, inT(confirm))
			}
			var settled sim.Time
			for _, s := range sites {
				if s == crashed {
					continue
				}
				if o := cl.OutcomeAt(s, txn); o != types.OutcomeAborted {
					t.Fatalf("%s: site%d = %v, want aborted", name, s, o)
				}
				settled = max(settled, cl.Site(s).decidedAt[txn])
			}
			if settled-distributed > sim.Time(T) {
				t.Errorf("%s: the decision took %.2f T to reach the survivors, want one hop", name, inT(settled-distributed))
			}

			restarted := cl.Scheduler().Now()
			cl.Restart(crashed)
			cl.Run()
			if o := cl.OutcomeAt(crashed, txn); o != types.OutcomeAborted {
				t.Fatalf("%s: restarted coordinator = %v, want aborted", name, o)
			}
			rejoin := cl.Site(crashed).decidedAt[txn] - restarted
			if rejoin <= 0 || rejoin > sim.Time(2*T) {
				t.Errorf("%s: restarted coordinator agreed after %.2f T, want at most two hops (the query out, the outcome back)", name, inT(rejoin))
			}
			for _, e := range cl.Recorder().Events() {
				if !e.IsMessage() && e.Site == crashed && e.At >= restarted && strings.Contains(e.Text, "campaigns") {
					t.Errorf("%s: restarted coordinator campaigned at restart+%.2f T, want the outcome from a survivor", name, inT(e.At-restarted))
				}
			}
			checkClean(t, cl)
			fmt.Fprintf(&table, "%s %9.2f %9.2f %9.2f\n", row, inT(confirm), inT(settled), inT(rejoin))
		}
	}
	t.Log(table.String())
}
