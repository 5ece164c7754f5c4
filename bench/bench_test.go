package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"qcommit/internal/msg"
	"qcommit/internal/transport/inproc"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if !near(q1, 3.5) || !near(q2, 13.5) || !near(q3, 31.0) {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50, 60], n=4) -> [17.5, 35.0, 52.5]
	q1, q2, q3 = quartiles([]float64{10, 20, 30, 40, 50, 60})
	if !near(q1, 17.5) || !near(q2, 35) || !near(q3, 52.5) {
		t.Errorf("quartiles = %v %v %v, want 17.5 35 52.5", q1, q2, q3)
	}
}

func TestGoodputIsSuccessesOverTheWholeWindow(t *testing.T) {
	w := window{seconds: 4, latMs: make([]float64, 1000)}
	if got := w.goodput(); !near(got, 250) {
		t.Errorf("goodput = %v, want 250", got)
	}
	if got := (window{}).goodput(); got != 0 {
		t.Errorf("goodput of an empty window = %v, want 0", got)
	}
}

func TestStolenShareReadsTheKernelsAccount(t *testing.T) {
	a := readCPU()
	if a.total == 0 {
		t.Skip("no /proc/stat here")
	}
	time.Sleep(50 * time.Millisecond)
	if got := stolenSince(a); got < 0 || got > 1 {
		t.Errorf("stolen share = %v, want a share", got)
	}
}

func TestBudgetSumsToTheOperation(t *testing.T) {
	spans := []span{
		{Name: "op", Txn: 16, Start: 0, End: 1000},
		{Name: "transport.hop", Txn: 16, Start: 100, End: 400},
		{Name: "wal.durable", Txn: 16, Start: 300, End: 600}, // overlaps the hop: wal wins 300..400
		{Name: "wal.append", Txn: 16, Start: 300, End: 310},
		{Name: "transport.send", Txn: 16, Start: 900, End: 1200}, // clipped at the operation's end
		{Name: "op", Txn: 32, Start: 0, End: 500},                // not committed: left out
	}
	b := budgetOf(spans, func(txn uint64) bool { return txn == 16 })
	if len(b.op) != 1 {
		t.Fatalf("budgeted %d operations, want 1", len(b.op))
	}
	if b.wal[0] != 0.3 || b.transport[0] != 0.3 || b.unattributed[0] != 0.4 || b.op[0] != 1 {
		t.Errorf("wal %v transport %v unattributed %v of %v us, want 0.3 0.3 0.4 of 1", b.wal[0], b.transport[0], b.unattributed[0], b.op[0])
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed int64) []types.ItemID {
		lc := &liveCluster{spec: hotkeyContended}
		var err error
		if _, lc.asgn, err = hotkeyContended.assignment(); err != nil {
			t.Fatal(err)
		}
		g, err := lc.generator(seed)
		if err != nil {
			t.Fatal(err)
		}
		var items []types.ItemID
		for _, txn := range g.Batch(64) {
			items = append(items, txn.Writeset.Items()...)
		}
		return items
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("the same seed drew different transactions")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("different seeds drew the same transactions")
	}
	if runSeed(1, 2000) >= runSeed(2, 0) {
		t.Error("run sequences of consecutive seeds overlap")
	}
}

// TestTracedWALKeepsTicketSemantics holds the wrapper to internal/wal's
// AsyncLog contract: dense increasing tickets, WaitDurable implies Durable,
// only durable records are visible, and Append is AppendAsync + WaitDurable.
func TestTracedWALKeepsTicketSemantics(t *testing.T) {
	gl, err := wal.OpenGroupLog(filepath.Join(t.TempDir(), "site1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer gl.Close()
	tr := newTracer()
	var log wal.AsyncLog = &tracedWAL{GroupLog: gl, tr: tr, site: 1}

	var last wal.Ticket
	for txn := types.TxnID(1); txn <= 40; txn++ {
		tk := log.AppendAsync(wal.Record{Type: wal.RecVotedYes, Txn: txn, Coord: 1})
		if tk != last+1 {
			t.Fatalf("ticket %d after %d: not dense", tk, last)
		}
		last = tk
	}
	if err := log.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	if log.Durable() < last {
		t.Errorf("Durable() = %d after WaitDurable(%d)", log.Durable(), last)
	}
	if err := log.Append(wal.Record{Type: wal.RecCommit, Txn: 41}); err != nil {
		t.Fatal(err)
	}
	recs, err := log.Records()
	if err != nil || len(recs) != 41 {
		t.Fatalf("Records() = %d records, %v; want 41", len(recs), err)
	}
	if got := tr.appends.Load(); got != 41 {
		t.Errorf("counted %d appends, want 41", got)
	}
	spans, _, _ := tr.snapshot()
	appended, durable := durations(spans, "wal.append"), durations(spans, "wal.durable")
	if len(appended) != 2 || len(durable) != 2 { // txns 16 and 32 carry spans
		t.Errorf("spans: %d wal.append, %d wal.durable; want 2 and 2", len(appended), len(durable))
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
}

func TestTracedTransportRoundTrip(t *testing.T) {
	tr := newTracer()
	tt := &tracedTransport{Transport: inproc.New(inproc.Options{MaxDelay: time.Millisecond, Seed: 1}), tr: tr}
	defer tt.Close()
	got := make(chan msg.Envelope, 8)
	tt.Bind(func(env msg.Envelope) { got <- env })

	recv := func() msg.Envelope {
		t.Helper()
		select {
		case env := <-got:
			return env
		case <-time.After(5 * time.Second):
			t.Fatal("no delivery")
			return msg.Envelope{}
		}
	}
	tt.Send(msg.Envelope{From: 1, To: 2, Msg: msg.Commit{Txn: 16}}) // sampled
	tt.Send(msg.Envelope{From: 1, To: 3, Msg: msg.Commit{Txn: 17}}) // counted only
	for i := 0; i < 2; i++ {
		if env := recv(); msg.TxnOf(env.Msg) != 16 && msg.TxnOf(env.Msg) != 17 {
			t.Errorf("delivered %v", env)
		}
	}
	tt.Crash(2)
	tt.Send(msg.Envelope{From: 1, To: 2, Msg: msg.Commit{Txn: 32}}) // shed: the site is down
	tt.Restart(2)
	tt.Send(msg.Envelope{From: 1, To: 2, Msg: msg.Commit{Txn: 48}})
	if env := recv(); msg.TxnOf(env.Msg) != 48 {
		t.Errorf("after restart delivered %v, want txn 48", env)
	}

	if n := tr.sends.Load(); n != 4 {
		t.Errorf("counted %d sends, want 4", n)
	}
	spans, captured, bytesPerMsg := tr.snapshot()
	if hops := durations(spans, "transport.hop"); len(hops) != 2 { // txns 16 and 48; 32 never arrived
		t.Errorf("%d hop spans, want 2", len(hops))
	}
	if sends := durations(spans, "transport.send"); len(sends) != 3 {
		t.Errorf("%d send spans, want 3", len(sends))
	}
	if len(captured) != 3 || bytesPerMsg <= 0 {
		t.Errorf("captured %d envelopes at %v bytes each", len(captured), bytesPerMsg)
	}
}

// manifest is what the tests read of BENCHMARK.json at the repository root.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []gate `json:"end_to_end"`
	PerLayer  []gate `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func units(gs []gate) map[string]string {
	out := map[string]string{}
	for _, g := range gs {
		out[g.Name] = g.Unit
	}
	return out
}

// TestBenchmarkJSONNamesTheWorkloads holds the workload list, and the reasons
// repeated in BENCHMARK.json, to the ones this program runs.
func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
}

// TestSmokeEveryWorkloadPrintsEveryMetric runs each workload for one second,
// untraced and traced, and checks that exactly the metrics BENCHMARK.json
// names come out, with its units, that nothing failed, and that no end-to-end
// metric is zero.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; about a minute")
	}
	m := readManifest(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runOne(w, runCtx{seed: 3, seconds: 1, trace: trace}, "")
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
				continue
			}
			want := units(m.EndToEnd)
			if trace {
				want = units(m.PerLayer)
			}
			for name, got := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: prints %s, which BENCHMARK.json does not name", w.name, trace, name)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, got.Value)
				}
			}
			for name, unit := range want {
				if got, ok := rep.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s of BENCHMARK.json is not printed", w.name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, got.Unit, unit)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
		}
	}
}
