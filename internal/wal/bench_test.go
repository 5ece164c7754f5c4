package wal

import (
	"fmt"
	"path/filepath"
	"testing"

	"qcommit/internal/types"
)

func benchRecord() Record {
	return Record{
		Type:         RecVotedYes,
		Txn:          42,
		Coord:        1,
		Participants: []types.SiteID{1, 2, 3, 4, 5, 6, 7, 8},
		Writeset:     types.Writeset{{Item: "x", Value: 1}, {Item: "y", Value: 2}},
	}
}

func BenchmarkMemLogAppend(b *testing.B) {
	l := NewMemLog()
	rec := benchRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileLogAppendSync is one GroupLog appender: every Append waits
// for its own write+fsync, so fsyncs/op reads exactly 1.
func BenchmarkFileLogAppendSync(b *testing.B) {
	l, err := OpenGroupLog(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := benchRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(l.Fsyncs())/float64(b.N), "fsyncs/op")
}

// BenchmarkFileLogAppendGroup measures the group-commit path under N
// concurrent appenders — the configuration the sync benchmark above cannot
// express. The headline metric is fsyncs/op: a lone appender pays exactly
// 1, group commit amortizes one fsync across every append that lands while
// the previous batch is being forced.
func BenchmarkFileLogAppendGroup(b *testing.B) {
	for _, appenders := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			l, err := OpenGroupLog(filepath.Join(b.TempDir(), "bench.wal"))
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			rec := benchRecord()
			b.ReportAllocs()
			b.SetParallelism(appenders)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := l.Append(rec); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(l.Fsyncs())/float64(b.N), "fsyncs/op")
		})
	}
}

func BenchmarkReplay(b *testing.B) {
	recs := make([]Record, 0, 1000)
	for t := types.TxnID(1); t <= 250; t++ {
		recs = append(recs,
			Record{Type: RecVotedYes, Txn: t, Writeset: types.Writeset{{Item: "x", Value: 1}}},
			Record{Type: RecPC, Txn: t},
			Record{Type: RecCommit, Txn: t},
		)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		images := Replay(recs)
		if len(images) != 250 {
			b.Fatal("bad replay")
		}
	}
}

func BenchmarkEncodeRecord(b *testing.B) {
	rec := benchRecord()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendRecord(buf[:0], rec)
	}
}
