package live

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/transport/tcp"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// BenchmarkLiveCommit measures wall-clock commit latency on the concurrent
// runtime (goroutines + channels + real timers) — the deployment-shaped
// number, as opposed to the simulator's virtual-time latencies.
//
//   - mem: in-memory logs over the inproc fabric; the runtime on its own.
//   - tcp-group: one on-disk group-commit log per site over loopback TCP,
//     the setup the repository benchmark runs. Its allocs/op is the commit
//     path's allocation count through the WAL and the socket send path.
func BenchmarkLiveCommit(b *testing.B) {
	b.Run("mem", func(b *testing.B) {
		benchLiveCommit(b, Config{})
	})
	b.Run("tcp-group", func(b *testing.B) {
		a := asgn()
		sites := a.Participants(a.Items())
		fab, err := tcp.NewFabric(sites, tcp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		dir := b.TempDir()
		logs := make(map[types.SiteID]*wal.GroupLog, len(sites))
		for _, id := range sites {
			l, err := wal.OpenGroupLog(filepath.Join(dir, fmt.Sprintf("site%d.wal", id)))
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			logs[id] = l
		}
		benchLiveCommit(b, Config{
			Transport: fab,
			WAL:       func(id types.SiteID) wal.Log { return logs[id] },
		})
	})
}

// benchLiveCommit commits one single-item transaction per iteration, each
// waited for before the next begins, over cfg's fabric and logs.
func benchLiveCommit(b *testing.B, cfg Config) {
	cfg.Assignment = asgn()
	cfg.Spec = core.Spec{Variant: core.Protocol2}
	cfg.Seed = 1
	cfg.TimeoutBase = 50 * time.Millisecond
	cl := New(cfg)
	defer cl.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := cl.Begin(types.SiteID(i%4+1), types.Writeset{{Item: "x", Value: int64(i)}})
		if got := cl.WaitOutcome(txn, 10*time.Second); got != types.OutcomeCommitted {
			b.Fatalf("txn %d: %v", i, got)
		}
	}
}
