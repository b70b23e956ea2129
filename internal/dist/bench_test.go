package dist

import (
	"context"
	"net/http/httptest"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/gen"
	"cutfit/internal/obsv"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// benchCluster is BenchmarkDistRun's fixture: the benchmark harness's dist-2w
// shape (R-MAT scale 15 with eight edges per vertex, 2D over 64 partitions)
// on two in-process workers behind real loopback sockets.
func benchCluster(b *testing.B) (*Pool, *pregel.PartitionedGraph) {
	b.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(15, 8, 1))
	if err != nil {
		b.Fatal(err)
	}
	const parts = 64
	assign, err := partition.EdgePartition2D().Partition(g, parts)
	if err != nil {
		b.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraph(g, assign, parts)
	if err != nil {
		b.Fatal(err)
	}
	urls := make([]string, 2)
	for i := range urls {
		srv := httptest.NewServer(NewWorker().Handler())
		b.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return NewPool(urls), pg
}

// BenchmarkDistRun times whole distributed runs — shard reuse, RunStart, every
// superstep's encode, round trip, scan and merge, RunFinish — for the three
// served algorithms. The first run outside the timer ships the shards, so the
// loop measures the steady state a warm cluster serves. MB/s is frame bytes
// (both directions) per run; bcast_B/step is the broadcast frames' bytes per
// superstep, and coord_ms/step what a superstep costs on the coordinator
// alone while the workers idle — its wall time less the barrier: encode,
// merge, apply.
func BenchmarkDistRun(b *testing.B) {
	ctx := context.Background()
	runs := []struct {
		name string
		run  func(*Pool, *pregel.PartitionedGraph) error
	}{
		{"pagerank", func(pool *Pool, pg *pregel.PartitionedGraph) error {
			_, _, err := PageRank(ctx, pool, pg, 10, algorithms.DefaultResetProb)
			return err
		}},
		{"cc", func(pool *Pool, pg *pregel.PartitionedGraph) error {
			_, _, err := ConnectedComponents(ctx, pool, pg, 0)
			return err
		}},
		{"dynamicpr", func(pool *Pool, pg *pregel.PartitionedGraph) error {
			_, _, err := DynamicPageRank(ctx, pool, pg, 1e-3, algorithms.DefaultResetProb, 0)
			return err
		}},
	}
	// The engine's own superstep histogram, found by name.
	hSuperstep := obsv.Default.Histogram("cutfit_pregel_superstep_seconds", "", obsv.DefBuckets)
	pool, pg := benchCluster(b)
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			frameBytes := func() int64 {
				return cBytes.With("broadcast").Value() + cBytes.With("reduce").Value()
			}
			before := frameBytes()
			if err := r.run(pool, pg); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(frameBytes() - before)
			b.ReportAllocs()
			bcast, steps := cBytes.With("broadcast").Value(), hSuperstep.Count()
			stepSecs, barrierSecs := hSuperstep.Sum(), hBarrierSeconds.Sum()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.run(pool, pg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			steps = hSuperstep.Count() - steps
			b.ReportMetric(float64(cBytes.With("broadcast").Value()-bcast)/float64(steps), "bcast_B/step")
			b.ReportMetric(1e3*((hSuperstep.Sum()-stepSecs)-(hBarrierSeconds.Sum()-barrierSecs))/float64(steps), "coord_ms/step")
		})
	}
}
