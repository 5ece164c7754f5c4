// Package par is the deterministic worker pool behind the parallel studies
// (churn.StudyParallel, avail.MonteCarloParallel): independent work items
// 0..n-1 are evaluated in chunks by a fixed set of goroutines, and the
// per-chunk results are merged in ascending index order, so a parallel run
// is bit-for-bit the serial one for any worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for n work items: zero or
// negative means runtime.GOMAXPROCS(0), and the count is capped at n but
// never below 1.
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return max(1, min(requested, n))
}

// Ordered evaluates items [0, n), n ≥ 0, with workers goroutines; n = 0
// runs and merges nothing. Workers claim contiguous chunks of up to chunk
// (≥ 1) items from a shared counter and call run(w, lo, hi) for items
// [lo, hi), where w in [0, workers) identifies the calling goroutine (so
// per-worker scratch can be indexed by it). Once every worker has returned,
// merge receives each chunk's result in ascending chunk order. If any chunk
// fails, no chunk is merged and Ordered returns the error of the lowest
// failing chunk — the one a serial walk would have hit first. progress, if
// non-nil, is called on the caller's goroutine after each completed chunk
// with the number of items finished so far and n, so its calls are
// serialized and done is nondecreasing.
func Ordered[T any](n, chunk, workers int, run func(w, lo, hi int) (T, error), merge func(T), progress func(done, total int)) error {
	numChunks := (n + chunk - 1) / chunk
	results := make([]T, numChunks)
	errs := make([]error, numChunks)

	// A worker checks the failure flag before claiming, never after: every
	// chunk below a claimed one has been claimed too, so every chunk below
	// the lowest failure runs and the serial walk's first error is found.
	var next atomic.Int64
	var failed atomic.Bool
	finished := make(chan int) // the size of each completed chunk
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				ci := int(next.Add(1)) - 1
				if ci >= numChunks {
					return
				}
				lo := ci * chunk
				hi := min(lo+chunk, n)
				res, err := run(w, lo, hi)
				if err != nil {
					errs[ci] = err
					failed.Store(true)
					return
				}
				results[ci] = res
				finished <- hi - lo
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
	done := 0
	for size := range finished {
		done += size
		if progress != nil {
			progress(done, n)
		}
	}

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, res := range results {
		merge(res)
	}
	return nil
}
