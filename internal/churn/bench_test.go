package churn

import (
	"fmt"
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/sim"
	"qcommit/internal/types"
)

func benchParams() Params {
	p := DefaultParams()
	p.Horizon = 2 * sim.Second
	return p
}

// simChurnParams is the repository benchmark's sim_churn point: 32 sites ×
// 512 items × 4 copies, 2 writes every 25 ms, MTTF 20 s / MTTR 1 s, a 5 s
// horizon, hybrid.
func simChurnParams() Params {
	return Params{
		NumSites: 32, NumItems: 512, CopiesPerItem: 4, WritesPerTxn: 2,
		MeanInterarrival: 25 * sim.Millisecond,
		MTTF:             20 * sim.Second, MTTR: sim.Second, MaxGroups: 3,
		Horizon: 5 * sim.Second,
		Engine:  EngineHybrid,
	}
}

// simChurnSeed is the seed of run r of bench/'s seed 1 (its runSeed).
func simChurnSeed(r int) int64 { return 1*1_000_003 + int64(r) }

// BenchmarkStudy measures the serial study kernel (one run is a full
// 5-protocol timeline replay).
func BenchmarkStudy(b *testing.B) {
	params := benchParams()
	specs := StandardBuilders()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Study(params, 1, 1, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyParallel measures the worker-pool study at several worker
// counts.
func BenchmarkStudyParallel(b *testing.B) {
	params := benchParams()
	specs := StandardBuilders()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := StudyParallel(params, 4, 1, specs, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChurnStudy measures the full study kernel under both engines on
// a realistic sparse-conflict configuration (wide item space, so the hybrid
// engine's analytic path carries most of the stream), and at the repository
// benchmark's sim_churn point.
func BenchmarkChurnStudy(b *testing.B) {
	params := benchParams()
	params.NumItems = 64
	specs := StandardBuilders()
	for _, engine := range []Engine{EngineReplay, EngineHybrid} {
		params.Engine = engine
		b.Run(engine.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Study(params, 1, 1, specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Iteration i evaluates run i of seed 1 as bench/'s runSeed spreads
	// them, so b.N iterations walk the same run sequence the benchmark's
	// measurement window does.
	b.Run("sim_churn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Study(simChurnParams(), 1, simChurnSeed(i), specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChurnTrial isolates one (script, protocol) evaluation — the unit
// of work the study fans out — from script generation and aggregation.
func BenchmarkChurnTrial(b *testing.B) {
	params := benchParams()
	params.NumItems = 64
	sc, err := generateScript(params, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := StandardBuilders()[3] // QC1, the paper's lead protocol
	for _, tc := range []struct {
		name string
		exec func(*script, Params, int64, core.Spec) (runStats, error)
	}{
		{"replay", executeRun},
		{"hybrid", executeRunHybrid},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.exec(sc, params, 1, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateScript isolates script generation (placement + timeline +
// workload draw) from simulation.
func BenchmarkGenerateScript(b *testing.B) {
	params := benchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := generateScript(params, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFallbackWorld isolates the hybrid engine's per-column fixed cost:
// build one fallback world for a generated script, drain its fault timeline
// to the horizon with no transaction submitted, and audit its stores. The
// sizes are the 32- and 128-site rows of churnbench's -sweep sites (16 items
// per site, per-site MTTF growing with the cluster); the seed tables are
// built once per script, as every protocol column after the first finds them.
func BenchmarkFallbackWorld(b *testing.B) {
	spec := StandardBuilders()[3] // QC1
	for _, m := range []int{4, 16} {
		params := DefaultParams()
		params.NumSites = 8 * m
		params.NumItems = params.NumSites * 16
		params.MTTF = 20 * sim.Second * sim.Duration(m)
		params.MTTR = sim.Second
		params.MeanInterarrival /= sim.Duration(m)
		params.Engine = EngineHybrid
		sc, err := generateScript(params, 1)
		if err != nil {
			b.Fatal(err)
		}
		drain := func() {
			h := &hybridRun{sc: sc, params: params, seed: 1, spec: spec, worldTxn: make([]types.TxnID, len(sc.arrivals))}
			h.ensureWorld()
			h.world.Scheduler().RunUntil(sim.Time(params.Horizon))
			if issues := h.world.CheckStores(); len(issues) > 0 {
				b.Fatal(issues)
			}
		}
		b.Run(fmt.Sprintf("sites=%d/items=%d", params.NumSites, params.NumItems), func(b *testing.B) {
			drain()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain()
			}
		})
	}
}
