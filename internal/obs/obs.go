// Package obs is the runtime's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms with quantile snapshots) plus a sampled per-transaction span
// recorder that timestamps each commit-path stage (see spans.go).
//
// The design rule is that the zero value is free: every method on a nil
// *Counter, *Gauge, *Histogram or *Spans is a no-op, so instrumented code
// holds plain pointer fields, leaves them nil when observability is off, and
// records unconditionally — no branches, no interface dispatch, no
// registration dance on the hot path. When a Registry is wired in, each
// record costs one or two atomic operations.
//
// Metric names follow the Prometheus text conventions: snake_case with a
// unit suffix (_total, _ns), optional labels in the name itself —
// "qcommit_lock_hold_ns{site=\"1\"}" — which WritePrometheus splits back
// out so histogram bucket lines can merge the le label in.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Observer bundles what an instrumented runtime carries: the metrics
// registry and the span recorder. Either field (or the whole pointer) may be
// nil; everything downstream of a nil stays free.
type Observer struct {
	Registry *Registry
	Spans    *Spans
}

// Reg returns the observer's registry (nil-safe).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}

// Spanner returns the observer's span recorder (nil-safe).
func (o *Observer) Spanner() *Spans {
	if o == nil {
		return nil
	}
	return o.Spans
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. No-op on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on nil.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d. No-op on nil.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: observation i lands in the first
// bucket whose upper bound is >= the value, with one overflow bucket above
// the last bound (+Inf). Bounds are set at construction and never change, so
// Observe is lock-free: one atomic add into the bucket, one into the sum,
// one into the count.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; len(counts) == len(bounds)+1
	counts  []atomic.Uint64
	sum     atomic.Uint64 // math.Float64bits-encoded CAS-accumulated sum
	count   atomic.Uint64
	maxBits atomic.Uint64 // float64 bits of the largest observation
}

// NewHistogram builds a histogram over the given ascending bucket bounds.
// The bounds slice is copied; an empty bounds list yields a single +Inf
// bucket (count/sum only).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// LatencyBounds is the default bucket ladder for nanosecond latencies:
// powers of two from 1µs to ~17s. Coarse enough to stay cheap, fine enough
// for meaningful p50/p95/p99 under the runtime's microsecond-to-second range.
func LatencyBounds() []float64 {
	bounds := make([]float64, 0, 25)
	for ns := float64(1024); ns < 2e10; ns *= 2 { // ~1µs .. ~17s
		bounds = append(bounds, ns)
	}
	return bounds
}

// SizeBounds is a bucket ladder for small-integer distributions (batch
// sizes, queue depths): 1, 2, 4, ... 4096.
func SizeBounds() []float64 {
	bounds := make([]float64, 0, 13)
	for n := float64(1); n <= 4096; n *= 2 {
		bounds = append(bounds, n)
	}
	return bounds
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary-search the bucket; the ladders are small (~25 entries).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveNS records a nanosecond duration.
func (h *Histogram) ObserveNS(ns int64) { h.Observe(float64(ns)) }

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64 `json:"-"`
	Counts []uint64  `json:"-"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Max    float64   `json:"max"`
}

// Snapshot copies the histogram's state. Counts are read bucket-by-bucket
// without a global lock, so a snapshot taken under concurrent observation is
// internally consistent only to within the in-flight observations — fine for
// monitoring. Nil yields a zero snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Max:    math.Float64frombits(h.maxBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile returns the q-th quantile (0 < q <= 1) estimated from the bucket
// counts: the upper bound of the bucket holding the nearest-rank
// observation, with the overflow bucket reporting the recorded maximum. Zero
// observations yield 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Max
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean (0 with no observations).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// metric is one registered entry, in registration order.
type metric struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of metrics with Prometheus text
// exposition. Handles are created through the getters (get-or-create by
// exact name, labels included) or attached with the Register* methods when
// the instrumented code owns its own handles. A nil *Registry returns nil
// handles from every getter, which keeps the whole chain free.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]int
	metrics []metric
	funcs   []counterFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Counter returns the counter registered under name, creating it if needed.
// Nil registry returns nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		return r.metrics[i].c
	}
	c := &Counter{}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, c: c})
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		return r.metrics[i].g
	}
	g := &Gauge{}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, g: g})
	return g
}

// Histogram returns the histogram registered under name, creating it over
// bounds if needed (bounds are ignored when the name already exists).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		return r.metrics[i].h
	}
	h := NewHistogram(bounds)
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, h: h})
	return h
}

// RegisterHistogram attaches an externally owned histogram under name
// (instrumented packages that always maintain their own handles — e.g. the
// group-commit WAL's batch-size distribution — publish them this way).
// Re-registering a name replaces the previous handle.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		r.metrics[i] = metric{name: name, h: h}
		return
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, h: h})
}

// RegisterCounterFunc registers a counter whose value is read through fn at
// exposition time (for sources that already keep their own atomic counts,
// like the TCP endpoint's frame counters).
func (r *Registry) RegisterCounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	c := r.Counter(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs = append(r.funcs, counterFunc{c: c, fn: fn})
}

// counterFunc mirrors an external count into a registered counter at
// exposition time.
type counterFunc struct {
	c  *Counter
	fn func() uint64
}

// refresh pulls every counter func's current value.
func (r *Registry) refresh() {
	r.mu.Lock()
	funcs := append([]counterFunc(nil), r.funcs...)
	r.mu.Unlock()
	for _, cf := range funcs {
		v := cf.fn()
		if cur := cf.c.Load(); v > cur {
			cf.c.Add(v - cur)
		}
	}
}

// splitName separates "base{labels}" into base and "labels" (no braces);
// labels is empty when the name carries none.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// joinLabels merges an existing label set with one more k="v" pair.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, in registration order. Histograms expand into cumulative _bucket
// lines plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.refresh()
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		base, labels := splitName(m.name)
		wrap := func(lbl string) string {
			if lbl == "" {
				return ""
			}
			return "{" + lbl + "}"
		}
		switch {
		case m.c != nil:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", base, wrap(labels), m.c.Load()); err != nil {
				return err
			}
		case m.g != nil:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", base, wrap(labels), m.g.Load()); err != nil {
				return err
			}
		case m.h != nil:
			s := m.h.Snapshot()
			var cum uint64
			for i, c := range s.Counts {
				cum += c
				le := "+Inf"
				if i < len(s.Bounds) {
					le = strconv(s.Bounds[i])
				}
				lbl := joinLabels(labels, `le="`+le+`"`)
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, wrap(lbl), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", base, wrap(labels), s.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, wrap(labels), s.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// strconv renders a bucket bound compactly (integral bounds without the
// trailing .0 %g would keep).
func strconv(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Kind discriminates snapshot entries.
type Kind uint8

// Snapshot kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// MetricSnapshot is one metric's point-in-time state.
type MetricSnapshot struct {
	Name  string // full registered name, labels included
	Base  string // name with labels stripped
	Kind  Kind
	Value float64      // counter/gauge value
	Hist  HistSnapshot // KindHistogram only
}

// Snapshot returns every metric's current state in registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.refresh()
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(metrics))
	for _, m := range metrics {
		base, _ := splitName(m.name)
		ms := MetricSnapshot{Name: m.name, Base: base}
		switch {
		case m.c != nil:
			ms.Kind, ms.Value = KindCounter, float64(m.c.Load())
		case m.g != nil:
			ms.Kind, ms.Value = KindGauge, float64(m.g.Load())
		case m.h != nil:
			ms.Kind, ms.Hist = KindHistogram, m.h.Snapshot()
		}
		out = append(out, ms)
	}
	return out
}

// MergeHistograms sums the bucket counts of every histogram snapshot whose
// base name matches, yielding the aggregate distribution (per-site series
// roll up into one). Snapshots with differing bucket ladders are skipped
// after the first.
func MergeHistograms(snaps []MetricSnapshot, base string) HistSnapshot {
	var out HistSnapshot
	for _, s := range snaps {
		if s.Kind != KindHistogram || s.Base != base {
			continue
		}
		if out.Bounds == nil {
			out.Bounds = s.Hist.Bounds
			out.Counts = make([]uint64, len(s.Hist.Counts))
		}
		if len(s.Hist.Counts) != len(out.Counts) {
			continue
		}
		for i, c := range s.Hist.Counts {
			out.Counts[i] += c
		}
		out.Count += s.Hist.Count
		out.Sum += s.Hist.Sum
		if s.Hist.Max > out.Max {
			out.Max = s.Hist.Max
		}
	}
	return out
}

// SumCounters sums every counter snapshot whose base name matches.
func SumCounters(snaps []MetricSnapshot, base string) uint64 {
	var total uint64
	for _, s := range snaps {
		if s.Kind == KindCounter && s.Base == base {
			total += uint64(s.Value)
		}
	}
	return total
}
