package dist

import (
	"context"
	"testing"
	"time"

	"cutfit/internal/cluster"
	"cutfit/internal/partition"
)

// TestClusterModelVsMeasured runs a real distributed PageRank over
// loopback workers and compares the wall-clock against what the
// internal/cluster cost model predicts for the same run statistics. The
// model simulates the paper's multi-node clusters, not two processes on
// one machine, so the test asserts only sanity (both times are positive
// and finite, the model accepted the distributed stats verbatim) and logs
// the predicted-vs-measured ratio — the nightly workflow archives that
// line as the calibration artifact.
func TestClusterModelVsMeasured(t *testing.T) {
	ctx := context.Background()
	pool, _ := startCluster(t, 2)
	g := randomGraph(99, 400, 4000)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 8)

	start := time.Now()
	_, stats, err := runPageRank(ctx, pool, pg, 10)
	if err != nil {
		t.Fatal(err)
	}
	measured := time.Since(start).Seconds()

	cfg := cluster.ConfigI()
	cfg.NumPartitions = pg.NumParts
	b, err := cfg.Simulate(stats, cluster.EstimateGraphBytes(g.NumEdges()))
	if err != nil {
		t.Fatalf("cost model rejected distributed run stats: %v", err)
	}
	predicted := b.TotalSecs()
	if predicted <= 0 {
		t.Fatalf("model predicted non-positive time %g", predicted)
	}
	if measured <= 0 {
		t.Fatalf("measured non-positive wall-clock %g", measured)
	}
	t.Logf("cost-model calibration: predicted=%.4fs measured=%.4fs ratio=%.3f (%s)",
		predicted, measured, predicted/measured, b)
}
