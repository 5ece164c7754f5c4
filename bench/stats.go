package main

import (
	"sort"

	istats "qcommit/internal/stats"
)

// percentile is the nearest-rank percentile (0 < p <= 100) of an unsorted
// sample; it sorts a copy. Zero for an empty sample.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return istats.PercentileNearestRank(s, p)
}

// median is the conventional median (mean of the two middle values for an
// even count) of an unsorted sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives with its default "exclusive" method —
// the rule the benchmark driver uses to judge run-to-run spread, so the A/A
// study applies the same arithmetic. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// window is one measured window: how long it lasted and the latencies, in
// ms, of its successful operations. Every figure is over all of it — nothing
// is filtered out, so whatever the program does to itself during a run,
// garbage collection included, is in every one of them.
type window struct {
	seconds float64
	latMs   []float64
}

// goodput is successes per wall second over the window.
func (w window) goodput() float64 { return ratio(float64(len(w.latMs)), w.seconds) }
