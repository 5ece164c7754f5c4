package avail

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestMonteCarloParallelMatchesSerial is the tentpole determinism contract:
// for every tested worker count the parallel engine returns MCResults
// bit-for-bit identical to the serial oracle.
func TestMonteCarloParallelMatchesSerial(t *testing.T) {
	params := DefaultScenarioParams()
	builders := StandardBuilders()
	const trials = 60
	want, err := MonteCarlo(params, trials, 1, builders, EngineReplay)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		got, err := MonteCarloParallel(params, trials, 1, builders, MCOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: parallel diverged from serial\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestMonteCarloParallelRace exercises the pool under the race detector
// (run via go test -race) with more workers than chunks and a progress
// callback mutating shared state.
func TestMonteCarloParallelRace(t *testing.T) {
	params := DefaultScenarioParams()
	builders := StandardBuilders()
	var mu sync.Mutex
	var calls int
	last := 0
	res, err := MonteCarloParallel(params, 40, 9, builders, MCOptions{
		Workers: 8,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if total != 40 {
				t.Errorf("progress total = %d, want 40", total)
			}
			if done < last || done > total {
				t.Errorf("progress done = %d after %d", done, last)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Error("progress callback never invoked")
	}
	if last != 40 {
		t.Errorf("final progress %d, want 40", last)
	}
	for _, r := range res {
		if r.Trials != 40 {
			t.Errorf("%s: trials = %d, want 40", r.Label, r.Trials)
		}
	}
}

func TestMonteCarloParallelEdgeCases(t *testing.T) {
	builders := StandardBuilders()
	// Zero trials: empty but labeled results, no error.
	res, err := MonteCarloParallel(DefaultScenarioParams(), 0, 1, builders, MCOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(builders) || res[0].Trials != 0 {
		t.Errorf("zero-trial results malformed: %+v", res)
	}
	// Invalid params surface the validation error, as the serial path does.
	bad := DefaultScenarioParams()
	bad.VotePhasePct = 150
	if _, err := MonteCarloParallel(bad, 10, 1, builders, MCOptions{}); err == nil {
		t.Error("VotePhasePct=150 accepted by parallel path")
	}
	if _, err := MonteCarlo(bad, 10, 1, builders, EngineReplay); err == nil {
		t.Error("VotePhasePct=150 accepted by serial path")
	}
	// Default worker count (0 → GOMAXPROCS) still matches serial.
	want, err := MonteCarlo(DefaultScenarioParams(), 20, 3, builders, EngineReplay)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MonteCarloParallel(DefaultScenarioParams(), 20, 3, builders, MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("default worker count diverged from serial")
	}
}

// TestMonteCarloRefusesNegativeTrials: a negative trial count is an error on
// both paths, not an empty table.
func TestMonteCarloRefusesNegativeTrials(t *testing.T) {
	builders := StandardBuilders()
	for _, trials := range []int{-1, -5} {
		if res, err := MonteCarlo(DefaultScenarioParams(), trials, 1, builders, EngineAnalytic); err == nil || res != nil {
			t.Errorf("MonteCarlo with %d trials: %v, %v; want an error", trials, res, err)
		}
		if res, err := MonteCarloParallel(DefaultScenarioParams(), trials, 1, builders, MCOptions{Workers: 2}); err == nil || res != nil {
			t.Errorf("MonteCarloParallel with %d trials: %v, %v; want an error", trials, res, err)
		}
	}
}
