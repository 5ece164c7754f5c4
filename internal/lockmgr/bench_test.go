package lockmgr

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"qcommit/internal/types"
)

func BenchmarkTryAcquireRelease(b *testing.B) {
	m := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txn := types.TxnID(i)
		if err := m.TryAcquire(txn, "x", Exclusive); err != nil {
			b.Fatal(err)
		}
		m.Release(txn, "x")
	}
}

func BenchmarkReleaseAllManyItems(b *testing.B) {
	items := make([]types.ItemID, 16)
	for i := range items {
		items[i] = types.ItemID(string(rune('a' + i)))
	}
	m := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txn := types.TxnID(i)
		for _, it := range items {
			_ = m.TryAcquire(txn, it, Exclusive)
		}
		m.ReleaseAll(txn)
	}
}

// BenchmarkReleaseAllPopulatedTable is the lock cost of one commit as a
// long-running site pays it: take two locks and release them, on a table
// that already carries an idle lock state for every item ever touched.
// ReleaseAll follows the transaction, not the table, so the three sizes read
// alike; a release that walks the table again shows as their ratio.
func BenchmarkReleaseAllPopulatedTable(b *testing.B) {
	for _, n := range []int{16, 4096, 65536} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			m := New(1)
			items := make([]types.ItemID, n)
			for i := range items {
				items[i] = types.ItemID(fmt.Sprintf("item%05d", i))
				_ = m.TryAcquire(0, items[i], Exclusive)
			}
			m.ReleaseAll(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn := types.TxnID(i + 1)
				_ = m.TryAcquire(txn, items[(2*i)%n], Exclusive)
				_ = m.TryAcquire(txn, items[(2*i+1)%n], Exclusive)
				m.ReleaseAll(txn)
			}
		})
	}
}

func BenchmarkSharedContention(b *testing.B) {
	m := New(1)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			txn := types.TxnID(i)
			if err := m.TryAcquire(txn, "hot", Shared); err == nil {
				m.Release(txn, "hot")
			}
			i++
		}
	})
}

// BenchmarkContendedZipf is the sharding benchmark: P goroutines each run a
// short acquire-all/release-all cycle over zipfian-distributed items (a few
// hot items absorb most traffic), in shared-heavy and exclusive-heavy mixes.
// shards=1 is the pre-sharding manager — a single mutex over everything —
// so the sharded/unsharded pairs isolate the win.
func BenchmarkContendedZipf(b *testing.B) {
	const (
		nItems      = 1024
		zipfS       = 1.2
		itemsPerTxn = 4
	)
	items := make([]types.ItemID, nItems)
	for i := range items {
		items[i] = types.ItemID(fmt.Sprintf("item%04d", i))
	}
	mixes := []struct {
		name      string
		exclusive float64 // probability a given item is taken exclusive
	}{
		{"sharedheavy", 0.1},
		{"exclheavy", 0.9},
	}
	for _, shards := range []int{1, DefaultShards} {
		for _, procs := range []int{4, 16} {
			for _, mix := range mixes {
				name := fmt.Sprintf("shards=%d/procs=%d/%s", shards, procs, mix.name)
				b.Run(name, func(b *testing.B) {
					m := NewSharded(1, shards)
					var txnSeq atomic.Uint64
					var seed atomic.Uint64
					b.SetParallelism(procs)
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						rng := rand.New(rand.NewSource(int64(seed.Add(1))))
						zipf := rand.NewZipf(rng, zipfS, 1, nItems-1)
						picked := make(map[types.ItemID]bool, itemsPerTxn)
						for pb.Next() {
							txn := types.TxnID(txnSeq.Add(1))
							clear(picked)
							for len(picked) < itemsPerTxn {
								picked[items[zipf.Uint64()]] = true
							}
							for it := range picked {
								mode := Shared
								if rng.Float64() < mix.exclusive {
									mode = Exclusive
								}
								// Contended acquires fail rather than queue:
								// the benchmark measures lock-table traffic,
								// not wait scheduling.
								_ = m.TryAcquire(txn, it, mode)
							}
							m.ReleaseAll(txn)
						}
					})
				})
			}
		}
	}
}
