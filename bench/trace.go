package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/transport"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// spanSampleEvery is the share of transactions that carry spans: counts are
// kept for every call, timestamps for one transaction in this many, so the
// traced run stays within memory and close to the untraced run's speed.
const spanSampleEvery = 16

// maxCaptured bounds the envelopes kept for the msg codec probe.
const maxCaptured = 4096

// span is one timed interval at a layer boundary. Spans of one operation
// share its transaction id; every child's parent is the operation span "op".
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Txn    uint64 `json:"txn"`
	Site   int    `json:"site,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer collects what the traced run observes from outside the layers: the
// obs registry live and its layers publish into, spans recorded by the
// benchmark's own wrappers, and call counts at the same boundaries. Every
// method is safe on a nil tracer, which is the untraced run.
type tracer struct {
	reg   *obs.Registry
	epoch time.Time

	sends   atomic.Uint64 // transport.Send calls carrying a protocol message
	appends atomic.Uint64 // wal.AppendAsync calls

	mu       sync.Mutex
	spans    []span
	opStart  map[types.TxnID]int64
	inFlight map[hopKey]int64 // sampled sends awaiting delivery
	captured []msg.Envelope
	wireLen  uint64 // framed bytes of sampled sends
	wireMsgs uint64
}

type hopKey struct {
	txn      types.TxnID
	kind     msg.Kind
	from, to types.SiteID
}

func newTracer() *tracer {
	return &tracer{reg: obs.NewRegistry(), epoch: time.Now(), opStart: map[types.TxnID]int64{}, inFlight: map[hopKey]int64{}}
}

func sampled(txn types.TxnID) bool { return txn != 0 && uint64(txn)%spanSampleEvery == 0 }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops what the warm-up recorded.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.captured, t.wireLen, t.wireMsgs = nil, nil, 0, 0
	t.mu.Unlock()
}

// snapshot returns the recorded spans, the captured envelopes and the mean
// framed size of the sampled messages.
func (t *tracer) snapshot() ([]span, []msg.Envelope, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]msg.Envelope(nil), t.captured...), ratio(float64(t.wireLen), float64(t.wireMsgs))
}

// opBegin and opEnd bracket the root span of one operation.
func (t *tracer) opBegin(txn types.TxnID, at time.Time) {
	if t == nil || !sampled(txn) {
		return
	}
	t.mu.Lock()
	t.opStart[txn] = t.since(at)
	t.mu.Unlock()
}

func (t *tracer) opEnd(txn types.TxnID, at time.Time) {
	if t == nil || !sampled(txn) {
		return
	}
	t.mu.Lock()
	if s, ok := t.opStart[txn]; ok {
		delete(t.opStart, txn)
		t.spans = append(t.spans, span{Name: "op", Txn: uint64(txn), Start: s, End: t.since(at)})
	}
	t.mu.Unlock()
}

// tracedTransport wraps the fabric: it times each Send call, and the hop from
// that call to the wrapped delivery handler on the receiving side.
type tracedTransport struct {
	transport.Transport
	tr *tracer
}

func (tt *tracedTransport) Bind(h transport.Handler) {
	tr := tt.tr
	tt.Transport.Bind(func(env msg.Envelope) {
		if txn := msg.TxnOf(env.Msg); sampled(txn) {
			now := time.Now()
			k := hopKey{txn, env.Msg.Kind(), env.From, env.To}
			tr.mu.Lock()
			if s, ok := tr.inFlight[k]; ok {
				delete(tr.inFlight, k)
				tr.spans = append(tr.spans, span{Name: "transport.hop", Parent: "op", Txn: uint64(txn), Site: int(env.To), Start: s, End: tr.since(now)})
			}
			tr.mu.Unlock()
		}
		h(env)
	})
}

func (tt *tracedTransport) Send(env msg.Envelope) {
	tr := tt.tr
	if env.Msg.Kind() == msg.KindInvalid {
		tt.Transport.Send(env)
		return
	}
	tr.sends.Add(1)
	txn := msg.TxnOf(env.Msg)
	if !sampled(txn) {
		tt.Transport.Send(env)
		return
	}
	framed, _ := msg.AppendEnvelope(nil, env)
	t0 := time.Now()
	tr.mu.Lock()
	tr.inFlight[hopKey{txn, env.Msg.Kind(), env.From, env.To}] = tr.since(t0)
	tr.wireLen += uint64(len(framed))
	tr.wireMsgs++
	if len(tr.captured) < maxCaptured {
		tr.captured = append(tr.captured, env)
	}
	tr.mu.Unlock()
	t0 = time.Now()
	tt.Transport.Send(env)
	t1 := time.Now()
	tr.add(span{Name: "transport.send", Parent: "op", Txn: uint64(txn), Site: int(env.From), Start: tr.since(t0), End: tr.since(t1)})
}

// tracedWAL wraps one site's group-commit log and stays a wal.AsyncLog, so
// live keeps its pipelined flusher: it times each AppendAsync call, and the
// wait from that call until the flusher's WaitDurable covering the record
// returns.
type tracedWAL struct {
	*wal.GroupLog
	tr   *tracer
	site types.SiteID

	mu      sync.Mutex
	waiting []pendingAppend // sampled appends not yet known durable, by ticket
}

type pendingAppend struct {
	ticket wal.Ticket
	txn    types.TxnID
	at     int64
}

var _ wal.AsyncLog = (*tracedWAL)(nil)

func (tw *tracedWAL) AppendAsync(r wal.Record) wal.Ticket {
	tw.tr.appends.Add(1)
	if !sampled(r.Txn) {
		return tw.GroupLog.AppendAsync(r)
	}
	t0 := time.Now()
	ticket := tw.GroupLog.AppendAsync(r)
	t1 := time.Now()
	s0 := tw.tr.since(t0)
	tw.mu.Lock()
	tw.waiting = append(tw.waiting, pendingAppend{ticket, r.Txn, s0})
	tw.mu.Unlock()
	tw.tr.add(span{Name: "wal.append", Parent: "op", Txn: uint64(r.Txn), Site: int(tw.site), Start: s0, End: tw.tr.since(t1)})
	return ticket
}

func (tw *tracedWAL) Append(r wal.Record) error { return tw.WaitDurable(tw.AppendAsync(r)) }

func (tw *tracedWAL) WaitDurable(t wal.Ticket) error {
	err := tw.GroupLog.WaitDurable(t)
	if err != nil {
		return err
	}
	now := tw.tr.since(time.Now())
	tw.mu.Lock()
	n := 0
	for n < len(tw.waiting) && tw.waiting[n].ticket <= t {
		n++
	}
	done := append([]pendingAppend(nil), tw.waiting[:n]...)
	tw.waiting = tw.waiting[n:]
	tw.mu.Unlock()
	for _, p := range done {
		tw.tr.add(span{Name: "wal.durable", Parent: "op", Txn: uint64(p.txn), Site: int(tw.site), Start: p.at, End: now})
	}
	return nil
}

// durations returns the lengths in microseconds of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// budget splits each operation span among its children: at every instant of
// the operation the time goes to "wal" if any of its WAL spans is open, else
// to "transport" if any transport span is open, else to nobody. So per
// operation wal + transport + unattributed equals the operation's length
// exactly. Only operations in ok (the committed ones) are budgeted.
type budget struct {
	op, wal, transport, unattributed []float64 // microseconds, one entry per operation
}

func budgetOf(spans []span, ok func(txn uint64) bool) budget {
	byTxn := map[uint64][]span{}
	for _, s := range spans {
		byTxn[s.Txn] = append(byTxn[s.Txn], s)
	}
	txns := make([]uint64, 0, len(byTxn))
	for txn := range byTxn {
		txns = append(txns, txn)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
	var b budget
	for _, txn := range txns {
		if !ok(txn) {
			continue
		}
		var op *span
		for i := range byTxn[txn] {
			if byTxn[txn][i].Name == "op" {
				op = &byTxn[txn][i]
			}
		}
		if op == nil {
			continue
		}
		type edge struct {
			at    int64
			class int // 0 wal, 1 transport
			open  int // +1 or -1
		}
		var edges []edge
		for _, s := range byTxn[txn] {
			class := 1
			switch s.Name {
			case "op":
				continue
			case "wal.append", "wal.durable":
				class = 0
			}
			lo, hi := max(s.Start, op.Start), min(s.End, op.End)
			if hi > lo {
				edges = append(edges, edge{lo, class, 1}, edge{hi, class, -1})
			}
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
		var open [2]int
		var spent [2]int64
		prev := op.Start
		for _, e := range edges {
			switch {
			case open[0] > 0:
				spent[0] += e.at - prev
			case open[1] > 0:
				spent[1] += e.at - prev
			}
			prev = e.at
			open[e.class] += e.open
		}
		total := op.End - op.Start
		b.op = append(b.op, float64(total)/1e3)
		b.wal = append(b.wal, float64(spent[0])/1e3)
		b.transport = append(b.transport, float64(spent[1])/1e3)
		b.unattributed = append(b.unattributed, float64(total-spent[0]-spent[1])/1e3)
	}
	return b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// gaugeMax polls the named gauges until stop is closed and returns the
// largest value seen; a gauge holds only the present value, and the mailbox
// depth that matters is the peak.
func gaugeMax(reg *obs.Registry, names []string, stop <-chan struct{}) <-chan int64 {
	out := make(chan int64, 1)
	gauges := make([]*obs.Gauge, len(names))
	for i, n := range names {
		gauges[i] = reg.Gauge(n)
	}
	go func() {
		var peak int64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
				for _, g := range gauges {
					if v := g.Load(); v > peak {
						peak = v
					}
				}
			}
		}
	}()
	return out
}

func mailboxGauges(sites []types.SiteID) []string {
	names := make([]string, len(sites))
	for i, id := range sites {
		names[i] = fmt.Sprintf(`qcommit_mailbox_depth{site="%d"}`, id)
	}
	return names
}
