package testutil

import (
	"context"
	"fmt"
	"testing"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// testGraphs builds the three structural families the paper's datasets
// span: a uniform random graph, a skewed power-law (RMAT) graph, and a
// high-diameter road network whose IDs encode geography.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	random, err := gen.ErdosRenyi(400, 2400, 0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(9, 8, 0xBEEF))
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.Road(gen.RoadConfig{Rows: 20, Cols: 20, EdgeProb: 0.4, DiagProb: 0.05, Fragments: 6, Seed: 0xCAFE})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"random": random, "rmat": rmat, "road": road}
}

// TestInvariantsAllStrategies is the cross-strategy harness: every
// strategy (the paper's six plus the streaming and hybrid extensions) on
// every graph family at several granularities must satisfy the full
// partition invariant set.
func TestInvariantsAllStrategies(t *testing.T) {
	graphs := testGraphs(t)
	strategies := partition.Extended()
	strategies = append(strategies, partition.Hybrid(10), partition.Range())
	for name, g := range graphs {
		for _, s := range strategies {
			for _, parts := range []int{1, 7, 128} {
				t.Run(fmt.Sprintf("%s/%s/%d", name, s.Name(), parts), func(t *testing.T) {
					if err := CheckStrategy(g, s, parts); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestInvariantsParallelismIndependent verifies the build produces the
// same structure regardless of worker count.
func TestInvariantsParallelismIndependent(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 0xD00D))
	if err != nil {
		t.Fatal(err)
	}
	const parts = 32
	a, err := partition.Assign(g, partition.EdgePartition2D(), parts)
	if err != nil {
		t.Fatal(err)
	}
	assign := a.PIDs
	for _, par := range []int{1, 2, 5, 64} {
		SetGOMAXPROCS(t, par)
		pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckPartitionInvariants(g, assign, parts, pg); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
	}
}

// TestInvariantCheckerCatchesViolations makes sure the oracle is not
// vacuous: a corrupted assignment alignment must be reported.
func TestInvariantCheckerCatchesViolations(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 200, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	a, err := partition.Assign(g, partition.RandomVertexCut(), parts)
	if err != nil {
		t.Fatal(err)
	}
	assign := a.PIDs
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with a copy of the assignment: the partitioned graph no
	// longer matches it, and the checker must notice.
	bad := append([]partition.PID(nil), assign...)
	bad[0] = (bad[0] + 1) % parts
	if err := CheckPartitionInvariants(g, bad, parts, pg); err == nil {
		t.Fatal("checker accepted a tampered assignment")
	}
	if err := CheckPartitionInvariants(g, assign, parts+1, pg); err == nil {
		t.Fatal("checker accepted a wrong partition count")
	}
}

// TestInvariantsTombstonedTopologies holds topologies a retraction was
// patched into — dead slots left among the live ones, ghosts in the mirror
// tables — to the same invariants as a cold build: a retract-only step, a
// sliding window that appends and expires at once, an append onto the
// tombstoned result and a second retract, each from a parent whose frontier
// indexes are built and from one whose are not.
func TestInvariantsTombstonedTopologies(t *testing.T) {
	for name, g0 := range testGraphs(t) {
		for _, s := range []partition.Strategy{partition.EdgePartition2D(), partition.RandomVertexCut(), partition.Hybrid(8)} {
			for _, indexed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/indexed=%v", name, s.Name(), indexed), func(t *testing.T) {
					checkTombstonedChain(t, g0, s, indexed)
				})
			}
		}
	}
}

func checkTombstonedChain(t *testing.T, g *graph.Graph, s partition.Strategy, indexed bool) {
	const parts = 6
	a, err := partition.Assign(g, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	n := len(edges)
	every := func(from, step int) []graph.Edge {
		var out []graph.Edge
		for i := from; i < n; i += step {
			out = append(out, edges[i])
		}
		return out
	}
	steps := []struct {
		name string
		next func(*graph.Graph) (*graph.Graph, graph.Delta, error)
	}{
		{"retract", func(g *graph.Graph) (*graph.Graph, graph.Delta, error) { return g.Shrink(every(0, 23)) }},
		{"slide", func(g *graph.Graph) (*graph.Graph, graph.Delta, error) {
			ng, d := g.SlideWindow(every(5, 41), n/40)
			return ng, d, nil
		}},
		{"append", func(g *graph.Graph) (*graph.Graph, graph.Delta, error) {
			ng, d := g.Grow([]graph.Edge{{Src: 1 << 40, Dst: edges[0].Src}, {Src: edges[1].Dst, Dst: 1 << 41}})
			return ng, d, nil
		}},
		{"retract again", func(g *graph.Graph) (*graph.Graph, graph.Delta, error) { return g.Shrink(every(3, 19)) }},
	}
	dead := 0
	for _, st := range steps {
		if indexed {
			// A sparse-frontier run builds every partition's index.
			if _, _, err := pregel.Run(context.Background(), pg, sparseProbe()); err != nil {
				t.Fatal(err)
			}
		}
		ng, d, err := st.next(g)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if d.Compacted {
			t.Fatalf("%s: the graph compacted", st.name)
		}
		na, err := a.Extend(ng, s)
		if err != nil {
			t.Fatal(err)
		}
		remap, err := graph.RemapVertices(d.OldVerts, ng)
		if err != nil {
			t.Fatal(err)
		}
		if pg, err = pg.ApplyDelta(na, remap); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if err := CheckPartitionInvariants(ng, na.PIDs, parts, pg); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		g, a = ng, na
		for _, part := range pg.Parts {
			dead += part.NumSlots() - part.NumEdges()
		}
	}
	if dead == 0 {
		t.Fatal("no step left a dead slot: the chain never exercised a tombstoned span")
	}
}

// sparseProbe is a two-round program whose second round has only vertex
// 0's out-neighbours on the frontier, so every partition but the smallest
// scans sparsely and builds its frontier index.
func sparseProbe() pregel.Program[int32, int32] {
	return pregel.Program[int32, int32]{
		Init:  func(graph.VertexID) int32 { return 0 },
		VProg: func(_ graph.VertexID, v, m int32) int32 { return v + m },
		SendMsg: func(t *pregel.Triplet[int32], emit pregel.Emitter[int32]) {
			if t.SrcIdx == 0 {
				emit.ToDst(1)
			}
		},
		MergeMsg:      func(a, b int32) int32 { return a + b },
		MaxIterations: 2,
	}
}
