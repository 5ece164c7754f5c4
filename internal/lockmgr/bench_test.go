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
// whose maps once held every item. ReleaseAll follows the transaction, not
// the table, so the three sizes read alike; a release that walks the table
// shows as their ratio.
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

// BenchmarkContendedZipf runs short acquire-all/release-all cycles over
// zipfian-distributed items (a few hot items absorb most traffic), and a
// contended acquire fails rather than queues. procs=1 is the production
// pattern, one owner; procs=4 is what the table's one mutex costs writers
// that share it.
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
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			m := New(1)
			var txnSeq atomic.Uint64
			var seed atomic.Uint64
			b.SetParallelism(procs)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				zipf := rand.NewZipf(rand.New(rand.NewSource(int64(seed.Add(1)))), zipfS, 1, nItems-1)
				for pb.Next() {
					txn := types.TxnID(txnSeq.Add(1))
					for j := 0; j < itemsPerTxn; j++ {
						_ = m.TryAcquire(txn, items[zipf.Uint64()], Exclusive)
					}
					m.ReleaseAll(txn)
				}
			})
		})
	}
}
