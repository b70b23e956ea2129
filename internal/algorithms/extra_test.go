package algorithms

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

func TestDynamicPageRankConvergesToStatic(t *testing.T) {
	check := func(seed uint64, partsRaw uint8) bool {
		numParts := 1 + int(partsRaw)%8
		g := randomGraph(seed, 30, 120)
		const tol = 1e-4
		want := DynamicPageRankSeq(g, tol/10, DefaultResetProb)
		pg := mustPartition(t, g, partition.RandomVertexCut(), numParts)
		got, stats, err := DynamicPageRank(context.Background(), pg, tol, DefaultResetProb, 0)
		if err != nil || !stats.Converged {
			return false
		}
		for i := range want {
			// The delta-gated propagation leaves residual error bounded by
			// a small multiple of tol.
			if math.Abs(got[i]-want[i]) > 100*tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicPageRankActiveSetShrinks(t *testing.T) {
	g := randomGraph(31, 200, 1500)
	pg := mustPartition(t, g, partition.EdgePartition2D(), 8)
	_, stats, err := DynamicPageRank(context.Background(), pg, 1e-3, DefaultResetProb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := stats.NumSupersteps(); n < 3 {
		t.Skipf("converged too fast (%d supersteps) to observe shrinkage", n)
	}
	first := stats.Supersteps[0].ActiveVertices
	last := stats.Supersteps[len(stats.Supersteps)-1].ActiveVertices
	if last >= first {
		t.Fatalf("active set did not shrink: %d -> %d", first, last)
	}
}

func TestDynamicPageRankErrors(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	pg := mustPartition(t, g, partition.RandomVertexCut(), 1)
	if _, _, err := DynamicPageRank(context.Background(), pg, 0, 0.15, 0); err == nil {
		t.Error("tol=0 should error")
	}
	if _, _, err := DynamicPageRank(context.Background(), pg, 1e-3, 1.0, 0); err == nil {
		t.Error("resetProb=1 should error")
	}
}
