package algorithms

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// lineageRuns runs the four served Pregel algorithms on pg and returns
// their values and statistics.
func lineageRuns(t *testing.T, pg *pregel.PartitionedGraph) (vals []any, stats []*pregel.RunStats) {
	t.Helper()
	ctx := context.Background()
	keep := func(v any, st *pregel.RunStats, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		vals, stats = append(vals, v), append(stats, st)
	}
	pr, st, err := PageRank(ctx, pg, 6, DefaultResetProb)
	keep(pr, st, err)
	cc, st, err := ConnectedComponents(ctx, pg, 0)
	keep(cc, st, err)
	dpr, st, err := DynamicPageRank(ctx, pg, 1e-3, DefaultResetProb, 0)
	keep(dpr, st, err)
	sp, st, err := ShortestPaths(ctx, pg, []graph.VertexID{pg.G.Vertices()[0]}, 0)
	keep(sp, st, err)
	return vals, stats
}

// TestRevivedScratchBitIdentical: a topology derived by ApplyDelta runs its
// first pagerank, cc, dynamicpr and sssp on the scratch its parent parked —
// shaped for another vertex count, other partition sizes, and full of the
// parent's values — and must return exactly the values and RunStats of a run
// on a cold topology with fresh buffers, for a grown child, a shrunk child
// and a child whose new vertices shifted every dense index.
func TestRevivedScratchBitIdentical(t *testing.T) {
	const parts = 6
	s := partition.EdgePartition2D()
	r := rand.New(rand.NewSource(11))
	// Vertex IDs are multiples of 3, so a step can add IDs in the middle.
	base := make([]graph.Edge, 1500)
	for i := range base {
		base[i] = graph.Edge{Src: graph.VertexID(3 * r.Intn(200)), Dst: graph.VertexID(3 * r.Intn(200))}
	}
	steps := []struct {
		name string
		step func(g *graph.Graph) (*graph.Graph, graph.Delta)
	}{
		{"grown", func(g *graph.Graph) (*graph.Graph, graph.Delta) {
			suffix := make([]graph.Edge, 120)
			for i := range suffix {
				suffix[i] = graph.Edge{Src: graph.VertexID(3 * r.Intn(200)), Dst: graph.VertexID(700 + i)}
			}
			return g.Grow(suffix)
		}},
		{"shrunk", func(g *graph.Graph) (*graph.Graph, graph.Delta) {
			ng, d, err := g.Shrink(g.Edges()[100:300])
			if err != nil {
				t.Fatal(err)
			}
			return ng, d
		}},
		{"remapped", func(g *graph.Graph) (*graph.Graph, graph.Delta) {
			suffix := make([]graph.Edge, 90)
			for i := range suffix {
				suffix[i] = graph.Edge{Src: graph.VertexID(3*r.Intn(200) + 1), Dst: graph.VertexID(3 * r.Intn(200))}
			}
			return g.Grow(suffix)
		}},
	}

	g := graph.FromEdges(base)
	a, err := partition.Assign(g, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	lineageRuns(t, pg) // park one scratch of each program type

	// The steps chain: every child is derived from the previous one and
	// inherits the scratches it left behind.
	for _, sc := range steps {
		ng, d := sc.step(pg.G)
		if d.Compacted {
			t.Fatalf("%s: step compacted, nothing to patch", sc.name)
		}
		na, err := a.Extend(ng, s)
		if err != nil {
			t.Fatal(err)
		}
		remap, err := graph.RemapVertices(d.OldVerts, ng)
		if err != nil {
			t.Fatal(err)
		}
		if (sc.name == "remapped") != (remap != nil) {
			t.Fatalf("%s: remap nil=%v", sc.name, remap == nil)
		}
		child, err := pg.ApplyDelta(na, remap)
		if err != nil {
			t.Fatal(err)
		}
		gotVals, gotStats := lineageRuns(t, child)

		coldA, err := partition.Assign(ng, s, parts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := pregel.NewPartitionedGraphFromAssignment(coldA, pregel.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantVals, wantStats := lineageRuns(t, cold)
		for i, alg := range []string{"pagerank", "cc", "dynamicpr", "sssp"} {
			if !reflect.DeepEqual(gotVals[i], wantVals[i]) {
				t.Fatalf("%s child, %s: values on a revived scratch differ from a fresh one", sc.name, alg)
			}
			if !reflect.DeepEqual(gotStats[i], wantStats[i]) {
				t.Fatalf("%s child, %s: RunStats on a revived scratch differ from a fresh one:\n got %+v\nwant %+v", sc.name, alg, gotStats[i], wantStats[i])
			}
		}
		pg, a = child, na
	}
}
