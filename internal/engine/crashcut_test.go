package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/msg"
	"qcommit/internal/sim"
	"qcommit/internal/trace"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

// cutLog is one site's stable storage with a crash cut in it. Of the records
// appended before the crash only the first keep are durable: the crash is
// scheduled when record max(keep, 1) is appended, and every record after
// keep is lost — a log whose force stalls until the site dies. It models
// what the live host lets such a crash take: nothing the site sends after a
// lost forced record leaves it (gated, read by the network filter), while a
// lost unforced record (VOTED-NO, ABORT) holds nothing back. After the crash
// the log is whole again.
type cutLog struct {
	wal.MemLog
	keep, n int
	gated   bool
	crash   func() // schedules the crash
	crashed bool
}

func (l *cutLog) Append(r wal.Record) error {
	if l.crashed {
		return l.MemLog.Append(r)
	}
	l.n++
	if l.n == max(l.keep, 1) {
		l.crash()
	}
	if l.n <= l.keep {
		return l.MemLog.Append(r)
	}
	l.gated = l.gated || r.Type.Forced()
	return nil
}

// crashCutScenario is one run the crash test cuts: it starts its
// transactions on a fresh cluster, refuse names the site that votes no, and
// the fault-free run must annotate shows (so the run does what it is named
// for).
type crashCutScenario struct {
	name   string
	refuse types.SiteID
	shows  string
	start  func(cl *Cluster) []types.TxnID
}

var crashCutScenarios = []crashCutScenario{
	{name: "commit", shows: "TR1 COMMITTED", start: func(cl *Cluster) []types.TxnID {
		return []types.TxnID{cl.Begin(1, types.Writeset{{Item: "x", Value: 1}})}
	}},
	{name: "commit-pure-coordinator", shows: "TR1 COMMITTED", start: func(cl *Cluster) []types.TxnID {
		return []types.TxnID{cl.Begin(4, types.Writeset{{Item: "x", Value: 1}})}
	}},
	{name: "begin-abort", shows: "TR2: site1 aborts at BEGIN", start: func(cl *Cluster) []types.TxnID {
		// Site 2's transaction locks site 1's copy; site 1's own then aborts
		// at Begin. The lock is awaited in steps of T/16, bounded, since a
		// cut may crash site 1 before it votes.
		first := cl.Begin(2, types.Writeset{{Item: "x", Value: 1}})
		for i := 0; i < 64 && !cl.ItemLockedAt(1, "x"); i++ {
			cl.RunFor(cl.T() / 16)
		}
		return []types.TxnID{first, cl.Begin(1, types.Writeset{{Item: "x", Value: 2}})}
	}},
	{name: "remote-no", refuse: 3, shows: "decides ABORT (participant voted no)", start: func(cl *Cluster) []types.TxnID {
		return []types.TxnID{cl.Begin(1, types.Writeset{{Item: "x", Value: 1}})}
	}},
}

// crashCut places one crash: site's log keeps its first keep records, the
// site dies lagT after the append that triggers the cut (0: at the end of
// that instant; T: after every frame that instant sent has landed, and after
// whatever the site did meanwhile) and restarts restartT later, both in
// units of T.
type crashCut struct {
	site           types.SiteID
	keep           int
	lagT, restartT sim.Duration
}

// runCrashCut runs sc under spec, with the crash cut if cut.site != 0. It
// returns the cluster, the transactions, each site's record count and
// whether the crash happened.
func runCrashCut(spec core.Spec, sc crashCutScenario, cut crashCut) (*Cluster, []types.TxnID, map[types.SiteID]int, bool) {
	sites := []types.SiteID{1, 2, 3}
	cl := New(Config{
		Seed:       1,
		Assignment: voting.MustAssignment(voting.Uniform("x", 2, 2, sites...)),
		Spec:       spec,
		ExtraSites: []types.SiteID{4},
	})
	var log *cutLog
	if site := cut.site; site != 0 {
		log = &cutLog{keep: cut.keep}
		log.crash = func() {
			cl.sched.At(cl.sched.Now().Add(cut.lagT*cl.T()), func() {
				cl.Crash(site)
				log.crashed, log.gated = true, false
				s := cl.Site(site)
				s.view = wal.View{} // the view folds what the log kept, not what it lost
				s.view.Apply(mustRecords(log)...)
				cl.RestartAt(cl.sched.Now().Add(cut.restartT*cl.T()), site)
			})
		}
		cl.Site(site).log = log
		cl.Network().SetFilter(func(e msg.Envelope) bool { return e.From == site && log.gated })
	}
	txns := sc.start(cl)
	if sc.refuse != 0 {
		for _, txn := range txns {
			cl.Site(sc.refuse).RefuseVote(txn)
		}
	}
	cl.Run()
	// Everyone is up again: give every transaction a fresh termination
	// budget, so a site still in doubt is one no rule can resolve.
	for _, txn := range txns {
		cl.Kick(txn)
	}
	cl.Run()
	counts := make(map[types.SiteID]int)
	for _, id := range cl.Sites() {
		counts[id] = len(mustRecords(cl.Site(id).Log()))
	}
	return cl, txns, counts, log != nil && log.crashed
}

func mustRecords(l wal.Log) []wal.Record {
	recs, err := l.Records()
	if err != nil {
		panic(err)
	}
	return recs
}

// TestCrashAtEveryRecord is the pin on what the sites force and what they
// only append (the site package's durability table, wal.RecType.Forced).
// Under all five protocols, for a fault-free commit (at a participating and
// at a pure coordinator), a Begin abort and an abort on a remote no vote,
// every site is crashed with its log cut after each of its records in turn
// — and before its first — at once or T later, and restarted soon (T) or
// late (6 T). Whatever the cut took, after recovery no two sites disagree,
// the store audit is clean, and no site ever commits a transaction any site
// decided to abort (an abort a client may have been told of, even if the
// crash then lost its record).
func TestCrashAtEveryRecord(t *testing.T) {
	for _, spec := range core.Standard([]types.SiteID{1, 2, 3}) {
		t.Run(spec.Name(), func(t *testing.T) {
			t.Parallel()
			runs := 0
			for _, sc := range crashCutScenarios {
				cl, txns, counts, _ := runCrashCut(spec, sc, crashCut{})
				if !slices.ContainsFunc(cl.Recorder().Events(), func(e trace.Event) bool { return strings.Contains(e.Text, sc.shows) }) {
					t.Fatalf("%s: the fault-free run never shows %q", sc.name, sc.shows)
				}
				for _, site := range []types.SiteID{1, 2, 3, 4} {
					for keep := 0; keep <= counts[site]; keep++ {
						if keep == 0 && counts[site] == 0 {
							continue // a site that logs nothing has no cut
						}
						for _, lag := range []sim.Duration{0, 1} {
							for _, restart := range []sim.Duration{1, 6} {
								cut := crashCut{site: site, keep: keep, lagT: lag, restartT: restart}
								cl, _, _, crashed := runCrashCut(spec, sc, cut)
								where := fmt.Sprintf("%s: site%d cut after %d of %d records, crash after %d T, restart after %d T",
									sc.name, site, keep, counts[site], lag, restart)
								if !crashed {
									t.Fatalf("%s: the crash never happened", where)
								}
								checkCrashCut(t, cl, txns, where, site)
								runs++
							}
						}
					}
				}
			}
			t.Logf("%d cut runs", runs)
		})
	}
}

// checkCrashCut applies the crash test's checks to a finished run whose
// crash hit site crashed: the three safety checks, and that the run ended
// with every copy holder on the same side — a commit reached every
// participant (each voted yes, so each must have kept its vote), and no site
// is left in doubt. Under 2PC the latter is skipped for a transaction a
// site is left in doubt about on the crashed coordinator (waitsOn): 2PC
// blocks its participants on a coordinator that crashed, and a restarted
// one ends the wait neither by re-sending a logged COMMIT nor by aborting
// what it never decided (ROADMAP item 17).
func checkCrashCut(t *testing.T, cl *Cluster, txns []types.TxnID, where string, crashed types.SiteID) {
	t.Helper()
	for _, txn := range txns {
		if cl.Spec().Variant == core.TwoPC && waitsOn(cl, txn, crashed) {
			continue
		}
		committed := false
		for _, id := range cl.Sites() {
			committed = committed || cl.StateOf(id, txn) == types.StateCommitted
		}
		for _, id := range []types.SiteID{1, 2, 3} {
			switch st := cl.StateOf(id, txn); {
			case committed && st != types.StateCommitted:
				t.Errorf("%s: %s committed, but site%d ended in %v", where, txn, id, st)
			case st == types.StateWait || st == types.StatePC || st == types.StatePA:
				t.Errorf("%s: site%d left in doubt about %s (%v)", where, id, txn, st)
			}
		}
	}
	if v := cl.Violations(); len(v) != 0 {
		t.Errorf("%s: violations %v", where, v)
	}
	if issues := cl.CheckStores(); len(issues) != 0 {
		t.Errorf("%s: store issues %v", where, issues)
	}
	for _, txn := range txns {
		var committed, aborted []types.SiteID
		for _, e := range cl.Recorder().Events() {
			switch e.Text {
			case fmt.Sprintf("%s COMMITTED", txn):
				committed = append(committed, e.Site)
			case fmt.Sprintf("%s ABORTED", txn):
				aborted = append(aborted, e.Site)
			}
		}
		if len(committed) > 0 && len(aborted) > 0 {
			t.Errorf("%s: %s aborted at %v and committed at %v\n%s", where, txn, aborted, committed,
				strings.TrimSpace(cl.Recorder().Ladder(nil)))
		}
	}
}

// waitsOn reports whether a site is left in doubt about txn with coord as
// its coordinator.
func waitsOn(cl *Cluster, txn types.TxnID, coord types.SiteID) bool {
	for _, id := range cl.Sites() {
		c := cl.Site(id).k.Txn(txn)
		if st := cl.StateOf(id, txn); c != nil && c.Coord == coord && (st == types.StateWait || st == types.StatePC || st == types.StatePA) {
			return true
		}
	}
	return false
}
