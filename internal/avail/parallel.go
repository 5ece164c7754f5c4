package avail

import "qcommit/internal/par"

// MCOptions tunes MonteCarloParallel.
type MCOptions struct {
	// Workers is the number of goroutines evaluating trials. Zero or negative
	// means runtime.GOMAXPROCS(0).
	Workers int
	// Engine selects trial evaluation: EngineReplay (the default, full
	// discrete-event simulation) or EngineAnalytic (pure quorum arithmetic,
	// differentially validated against replay).
	Engine Engine
	// Progress, if non-nil, is called as chunks of trials complete with the
	// number of trials finished so far and the total. Calls are serialized
	// (the callback need not be goroutine-safe) and done is nondecreasing.
	Progress func(done, total int)
}

// chunkSize bounds how many trials a worker claims at once: small enough to
// load-balance and keep progress reports frequent, large enough that the
// claim counter is not contended.
const chunkSize = 16

// MonteCarloParallel is the worker-pool version of MonteCarlo: par.Ordered
// fans chunks of trials out across opts.Workers goroutines and merges the
// per-chunk accumulators in ascending trial order. Because every trial is
// independently seeded (seed+t) and evaluated hermetically, the result is
// bit-for-bit identical to the serial MonteCarlo for any worker count and
// either engine.
func MonteCarloParallel(params ScenarioParams, trials int, seed int64, builders []SpecBuilder, opts MCOptions) ([]MCResult, error) {
	if err := checkTrials(trials); err != nil {
		return nil, err
	}
	// One trialRunner (scenario generator buffers, analytic tallies) per
	// worker, constructed before any trial runs so invalid params fail up
	// front (NewScenarioGen validates them).
	runners := make([]*trialRunner, par.Workers(opts.Workers, trials))
	for w := range runners {
		runner, err := newTrialRunner(params, builders, opts.Engine)
		if err != nil {
			return nil, err
		}
		runners[w] = runner
	}
	results := newMCResults(builders)
	if err := par.Ordered(trials, chunkSize, len(runners), func(w, lo, hi int) ([]MCResult, error) {
		acc := newMCResults(builders)
		for t := lo; t < hi; t++ {
			if err := runners[w].accumulate(seed, t, acc); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}, func(acc []MCResult) {
		for i := range results {
			results[i].add(acc[i])
		}
	}, opts.Progress); err != nil {
		return nil, err
	}
	return results, nil
}
