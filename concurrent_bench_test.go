// Concurrent-serving benchmarks: the throughput effect of the engine's
// per-program-type scratch pools under simultaneous runs, and the cost gap
// between Session cache hits and misses. Before/after numbers are recorded
// in CHANGES.md; `make bench-smoke` runs both briefly.
package cutfit_test

import (
	"context"
	"testing"

	"cutfit"
	"cutfit/internal/pregel"
)

// BenchmarkConcurrentRuns executes PageRank from ≥4 goroutines at once on
// one shared topology, fresh-allocating engine scratch per run versus
// drawing it from the ReuseBuffers pools. The pooled variant is the
// serving configuration; allocs/op is the headline number.
func BenchmarkConcurrentRuns(b *testing.B) {
	g := benchGraph(b, "youtube")
	const numParts = 128
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		reuse bool
	}{
		{"fresh", false},
		{"pooled", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pg, err := partitionWith(g, cutfit.EdgePartition2D(), numParts,
				pregel.BuildOptions{ReuseBuffers: tc.reuse})
			if err != nil {
				b.Fatal(err)
			}
			// Warm once so the pooled variant starts with a parked scratch.
			if _, _, err := runAs[[]float64](ctx, pg, "pagerank", cutfit.ServedParams(5)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.SetParallelism(4) // ≥4 concurrent runs even on one core
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, _, err := runAs[[]float64](ctx, pg, "pagerank", cutfit.ServedParams(5)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkSessionCache measures one full Measure+Partition request
// against a cold session (miss: every iteration partitions and builds)
// and a warm one (hit: every iteration is two cache lookups).
func BenchmarkSessionCache(b *testing.B) {
	g := benchGraph(b, "youtube")
	const numParts = 128
	s := cutfit.EdgePartition2D()
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			se := cutfit.NewSession(cutfit.SessionOptions{})
			if _, err := se.Measure(g, s, numParts); err != nil {
				b.Fatal(err)
			}
			if _, err := se.Partition(g, s, numParts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		se := cutfit.NewSession(cutfit.SessionOptions{})
		if _, err := se.Measure(g, s, numParts); err != nil {
			b.Fatal(err)
		}
		if _, err := se.Partition(g, s, numParts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := se.Measure(g, s, numParts); err != nil {
				b.Fatal(err)
			}
			if _, err := se.Partition(g, s, numParts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
