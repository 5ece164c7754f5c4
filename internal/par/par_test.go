package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ requested, n, want int }{
		{0, 1 << 20, procs},
		{-3, 1 << 20, procs},
		{0, 1, 1},
		{3, 10, 3},
		{5, 2, 2},
		{4, 0, 1},
	} {
		if got := Workers(tc.requested, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.requested, tc.n, got, tc.want)
		}
	}
}

// TestOrderedMergesInIndexOrder: whatever the worker count and chunk size,
// merge sees every item once in ascending order, run sees only valid worker
// indices, and progress is serialized, nondecreasing and ends at n.
func TestOrderedMergesInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		for _, chunk := range []int{1, 3, 16} {
			for _, n := range []int{0, 1, 2, 10, 50} {
				t.Run(fmt.Sprintf("workers=%d/chunk=%d/n=%d", workers, chunk, n), func(t *testing.T) {
					var merged []int
					var inProgress atomic.Int32
					calls, last := 0, 0
					err := Ordered(n, chunk, workers, func(w, lo, hi int) ([]int, error) {
						if w < 0 || w >= workers {
							t.Errorf("worker index %d outside [0, %d)", w, workers)
						}
						if hi-lo < 1 || hi-lo > chunk || hi > n {
							t.Errorf("chunk [%d, %d) of size %d over %d items", lo, hi, chunk, n)
						}
						items := make([]int, 0, hi-lo)
						for i := lo; i < hi; i++ {
							items = append(items, i)
						}
						return items, nil
					}, func(items []int) {
						merged = append(merged, items...)
					}, func(done, total int) {
						if inProgress.Add(1) != 1 {
							t.Error("concurrent progress calls")
						}
						defer inProgress.Add(-1)
						calls++
						if total != n || done < last || done > n {
							t.Errorf("progress(%d, %d) after %d", done, total, last)
						}
						last = done
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(merged) != n {
						t.Fatalf("merged %d items, want %d", len(merged), n)
					}
					for i, v := range merged {
						if v != i {
							t.Fatalf("merged[%d] = %d: not in index order", i, v)
						}
					}
					if last != n || (n > 0) != (calls > 0) {
						t.Errorf("%d progress calls ending at %d, want the last to report %d", calls, last, n)
					}
				})
			}
		}
	}
}

// TestOrderedReturnsLowestFailure: chunk 2 fails first, while chunks 0 and 1
// are still running; chunk 1 then fails too and chunk 0 succeeds. The error
// is chunk 1's, the one a serial walk would have hit first, and nothing is
// merged.
func TestOrderedReturnsLowestFailure(t *testing.T) {
	errLow, errHigh := errors.New("chunk 1"), errors.New("chunk 2")
	release := make(chan struct{})
	err := Ordered(6, 1, 3, func(_, lo, _ int) (int, error) {
		switch lo {
		case 0:
			<-release
			return lo, nil
		case 1:
			<-release
			return 0, errLow
		case 2:
			close(release)
			return 0, errHigh
		}
		return lo, nil
	}, func(int) {
		t.Error("merge called on failure")
	}, nil)
	if err != errLow {
		t.Fatalf("err = %v, want %v", err, errLow)
	}
}
