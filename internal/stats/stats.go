// Package stats holds small shared statistics helpers: the one nearest-rank
// percentile that the churn study's latency tables and the bench/ module's
// reports both read, so the two cannot drift apart.
package stats

import (
	"cmp"
	"math"
)

// PercentileNearestRank returns the p-th percentile (0 < p <= 100) of the
// ascending-sorted sample by the nearest-rank method: the smallest element
// with at least ceil(p/100*n) samples at or below it. The zero value of T
// is returned for an empty sample; p is clamped into (0, 100].
//
// Nearest rank is exact on the sample (no interpolation), monotone in p,
// and for p=100 always returns the maximum — the properties the latency
// tables rely on.
func PercentileNearestRank[T cmp.Ordered](sorted []T, p float64) T {
	var zero T
	n := len(sorted)
	if n == 0 {
		return zero
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
