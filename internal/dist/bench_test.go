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
	a, err := partition.Assign(g, partition.EdgePartition2D(), parts)
	if err != nil {
		b.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
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
// superstep's encode, round trip, scan and merge, RunFinish — for every
// cluster entry of the served-algorithm table. The first run outside the timer ships the shards, so the
// loop measures the steady state a warm cluster serves. MB/s is frame bytes
// (both directions) per run; bcast_B/step is the broadcast frames' bytes per
// superstep, and coord_ms/step what a superstep costs on the coordinator
// alone while the workers idle — its wall time less the barrier: encode,
// merge, apply.
func BenchmarkDistRun(b *testing.B) {
	ctx := context.Background()
	// The engine's own superstep histogram, found by name.
	hSuperstep := obsv.Default.Histogram("cutfit_pregel_superstep_seconds", "", obsv.DefBuckets)
	pool, pg := benchCluster(b)
	for _, e := range algorithms.ClusterServed() {
		// Ten rounds where the algorithm needs a cap, else to convergence.
		p := algorithms.ServedParams(0)
		if e.Check(p) != nil {
			p = algorithms.ServedParams(10)
		}
		run := func() error {
			_, _, err := Run(ctx, pool, pg, e, p)
			return err
		}
		b.Run(e.Name, func(b *testing.B) {
			frameBytes := func() int64 {
				return cBytes.With("broadcast").Value() + cBytes.With("reduce").Value()
			}
			before := frameBytes()
			if err := run(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(frameBytes() - before)
			b.ReportAllocs()
			bcast, steps := cBytes.With("broadcast").Value(), hSuperstep.Count()
			stepSecs, barrierSecs := hSuperstep.Sum(), hBarrierSeconds.Sum()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
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
