package avail

import (
	"fmt"
	"testing"
)

// benchTrials is the sweep size each benchmark iteration evaluates: large
// enough that worker-pool startup is amortized, small enough for quick runs.
const benchTrials = 64

// BenchmarkMonteCarlo measures the serial sweep under both evaluation
// engines. The replay case is the oracle baseline; the analytic case is the
// quorum-arithmetic fast path, which must beat it by ≥10× (it computes the
// same Counts — see the differential tests — without simulating WAL appends,
// elections or timeouts).
func BenchmarkMonteCarlo(b *testing.B) {
	params := DefaultScenarioParams()
	builders := StandardBuilders()
	for _, eng := range []Engine{EngineReplay, EngineAnalytic} {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MonteCarlo(params, benchTrials, 1, builders, eng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkMonteCarloParallel measures the worker-pool sweep at several
// worker counts under both engines. Compare ns/op against BenchmarkMonteCarlo:
// replay scales with cores (per-trial simulation dominates); the analytic
// engine is so much cheaper per trial that pool overhead shows at small
// trial counts.
func BenchmarkMonteCarloParallel(b *testing.B) {
	params := DefaultScenarioParams()
	builders := StandardBuilders()
	for _, eng := range []Engine{EngineReplay, EngineAnalytic} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers%d", eng, workers), func(b *testing.B) {
				b.ReportAllocs()
				opts := MCOptions{Workers: workers, Engine: eng}
				for i := 0; i < b.N; i++ {
					if _, err := MonteCarloParallel(params, benchTrials, 1, builders, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(benchTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
			})
		}
	}
}

// BenchmarkGenerateScenario contrasts the one-shot generator (a fresh
// ScenarioGen per draw — the historical allocation profile) with a reused
// generator (precomputed item names, recycled permutation/state/group
// scratch). allocs/op is the point of comparison.
func BenchmarkGenerateScenario(b *testing.B) {
	params := DefaultScenarioParams()
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GenerateScenario(params, int64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		gen, err := NewScenarioGen(params)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gen.Generate(int64(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTrial measures one scenario × one protocol (QC1) per iteration
// under each engine — the innermost unit of the sweep, free of generator
// and aggregation costs.
func BenchmarkTrial(b *testing.B) {
	var qc1 SpecBuilder
	for _, bl := range StandardBuilders() {
		if bl.Label == "QC1" {
			qc1 = bl
		}
	}
	if qc1.Build == nil {
		b.Fatal("QC1 builder not found")
	}
	sc, err := GenerateScenario(DefaultScenarioParams(), 7)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, _ := Replay(sc, qc1.Build(sc))
			if rep.Tally().Groups == 0 {
				b.Fatal("empty tally")
			}
		}
	})
	b.Run("analytic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			counts, _ := AnalyzeAnalytic(sc, qc1.Build(sc))
			if counts.Groups == 0 {
				b.Fatal("empty counts")
			}
		}
	})
}
