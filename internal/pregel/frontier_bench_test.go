package pregel

import (
	"context"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// hotStride spaces the steady-state frontier of the sparse benchmark:
// vertices with id%hotStride == 0 ("hot" vertices) re-activate every
// superstep, ≈0.5% of the graph — far below the 12.5% density-rule threshold.
const hotStride = 199

// sparseFrontierTopology builds the benchmark graph: a uniform random
// background (whose edges go quiet after superstep 1) plus a ring over the
// hot vertices, so every hot vertex receives a message from its ring
// predecessor each superstep and the frontier stays pinned at the hot set.
func sparseFrontierTopology(tb testing.TB, nv, ne int) *PartitionedGraph {
	tb.Helper()
	edges := deltaEdges(71, nv, ne)
	var hot []graph.VertexID
	for v := 0; v < nv; v += hotStride {
		hot = append(hot, graph.VertexID(v))
	}
	for i, v := range hot {
		edges = append(edges, graph.Edge{Src: v, Dst: hot[(i+1)%len(hot)]})
	}
	g := graph.FromEdges(edges)
	a, err := partition.Assign(g, partition.EdgePartition2D(), 8)
	if err != nil {
		tb.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	pg.ReuseBuffers = true
	return pg
}

// hotRingProgram keeps exactly the hot vertices on the frontier: only
// hot→hot edges (the ring) ever emit, so after the fully-active superstep 1
// every later superstep runs with <1% of vertices active.
func hotRingProgram(policy scanPath, supersteps int) Program[int64, int64] {
	return Program[int64, int64]{
		Init:  func(id graph.VertexID) int64 { return int64(id) },
		VProg: func(_ graph.VertexID, val, msg int64) int64 { return val + msg },
		SendMsg: func(t *Triplet[int64], emit Emitter[int64]) {
			if t.SrcID()%hotStride == 0 && t.DstID()%hotStride == 0 {
				emit.ToDst(1)
			}
		},
		MergeMsg:        func(a, b int64) int64 { return a + b },
		MaxIterations:   supersteps,
		ActiveDirection: Out,
		scan:            policy,
	}
}

// BenchmarkSparseFrontier measures the payoff of the frontier-index scan on
// a steady-state workload whose frontier is <1% of the graph: 40 supersteps
// of the hot-ring program under each policy. The acceptance bar is
// sparse ≥ 3× faster than dense at this density (compare medians across
// -count=10 runs); auto should track sparse after its one dense superstep.
// The allEdges variant runs a PageRank-shaped always-active program over
// the same topology — the unconditional scan the dense fallback must stay
// within 5% of.
func BenchmarkSparseFrontier(b *testing.B) {
	// ~50 edges per vertex: the dense scan's per-edge activity tests must
	// dominate the per-superstep O(vertices) phases for the comparison to
	// isolate the scan paths.
	const nv, ne, steps = 8000, 400000, 40
	pg := sparseFrontierTopology(b, nv, ne)
	ctx := context.Background()
	for _, bc := range []struct {
		name   string
		policy scanPath
	}{
		{"dense", scanDense},
		{"sparse", scanSparse},
		{"auto", scanByDensity},
	} {
		b.Run(bc.name, func(b *testing.B) {
			prog := hotRingProgram(bc.policy, steps)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Run(ctx, pg, prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("allEdges", func(b *testing.B) {
		prog := Program[float64, float64]{
			Init:  func(id graph.VertexID) float64 { return 1 },
			VProg: func(_ graph.VertexID, val, msg float64) float64 { return 0.15 + 0.85*msg },
			SendMsg: func(t *Triplet[float64], emit Emitter[float64]) {
				emit.ToDst(t.SrcVal * 0.1)
			},
			MergeMsg:        func(a, b float64) float64 { return a + b },
			MaxIterations:   steps,
			ActiveDirection: AllEdges,
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Run(ctx, pg, prog); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSparseFrontierBenchmarkFrontier pins the benchmark's premise: the
// hot-ring program really does run its steady state on <1% of vertices, so
// the dense/sparse comparison measures what it claims to.
func TestSparseFrontierBenchmarkFrontier(t *testing.T) {
	const nv, ne, steps = 4000, 24000, 10
	pg := sparseFrontierTopology(t, nv, ne)
	_, stats, err := Run(context.Background(), pg, hotRingProgram(scanByDensity, steps))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Supersteps) < steps {
		t.Fatalf("hot ring died out after %d supersteps, want %d", len(stats.Supersteps), steps)
	}
	hot := int64((nv + hotStride - 1) / hotStride)
	for i, ss := range stats.Supersteps[1:] {
		if ss.ActiveVertices > hot {
			t.Fatalf("superstep %d: %d active vertices, want ≤ %d hot", i+2, ss.ActiveVertices, hot)
		}
	}
}
