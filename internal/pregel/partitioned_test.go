package pregel

import (
	"slices"
	"testing"
	"testing/quick"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/rng"
)

func randomGraph(seed uint64, maxV, maxE int) *graph.Graph {
	r := rng.New(seed)
	nv := 2 + r.Intn(maxV)
	ne := 1 + r.Intn(maxE)
	edges := make([]graph.Edge, ne)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(r.Intn(nv)),
			Dst: graph.VertexID(r.Intn(nv)),
		}
	}
	return graph.FromEdges(edges)
}

func mustPartition(t *testing.T, g *graph.Graph, s partition.Strategy, parts int) *PartitionedGraph {
	t.Helper()
	assign, err := s.Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraph(g, assign, parts)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func TestNewPartitionedGraphErrors(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	if _, err := NewPartitionedGraph(g, []partition.PID{0}, 0); err == nil {
		t.Error("numParts=0 should error")
	}
	if _, err := NewPartitionedGraph(g, nil, 2); err == nil {
		t.Error("assignment length mismatch should error")
	}
	if _, err := NewPartitionedGraph(g, []partition.PID{7}, 2); err == nil {
		t.Error("out-of-range PID should error")
	}
}

func TestPartitionedGraphStructure(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}})
	assign := []partition.PID{0, 0, 1, 1}
	pg, err := NewPartitionedGraph(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Parts[0].NumEdges() != 2 || pg.Parts[1].NumEdges() != 2 {
		t.Fatalf("edge counts: %d, %d", pg.Parts[0].NumEdges(), pg.Parts[1].NumEdges())
	}
	if pg.Parts[0].NumLocalVertices() != 3 || pg.Parts[1].NumLocalVertices() != 3 {
		t.Fatalf("local vertices: %d, %d", pg.Parts[0].NumLocalVertices(), pg.Parts[1].NumLocalVertices())
	}
	// Vertices 0 and 2 are replicated twice; 1 and 3 once.
	if got, want := pg.ReplicaCounts(), []int32{2, 1, 2, 1}; !slices.Equal(got, want) {
		t.Errorf("ReplicaCounts = %v, want %v", got, want)
	}
	if pg.TotalMirrors() != 6 {
		t.Fatalf("TotalMirrors = %d, want 6", pg.TotalMirrors())
	}
}

func TestLocalVertsSorted(t *testing.T) {
	g := randomGraph(7, 50, 300)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 8)
	for p, part := range pg.Parts {
		lv := part.LocalVerts
		for i := 1; i < len(lv); i++ {
			if lv[i-1] >= lv[i] {
				t.Fatalf("partition %d LocalVerts not strictly sorted", p)
			}
		}
	}
}

// TestMirrorsMatchMetrics cross-checks the engine's replica counts against
// the independent metrics computation: Σ mirrors must equal CommCost+NonCut
// and the per-vertex replica counts must match the bitset-based replicas.
func TestMirrorsMatchMetrics(t *testing.T) {
	check := func(seed uint64, partsRaw uint8) bool {
		numParts := 1 + int(partsRaw)%24
		g := randomGraph(seed, 50, 250)
		for _, s := range []partition.Strategy{partition.RandomVertexCut(), partition.EdgePartition2D()} {
			assign, err := s.Partition(g, numParts)
			if err != nil {
				return false
			}
			pg, err := NewPartitionedGraph(g, assign, numParts)
			if err != nil {
				return false
			}
			m, err := metrics.Compute(g, assign, numParts)
			if err != nil {
				return false
			}
			if pg.TotalMirrors() != m.CommCost+m.NonCut {
				return false
			}
			var cut, noncut int64
			for _, reps := range pg.ReplicaCounts() {
				if reps > 1 {
					cut++
				} else if reps == 1 {
					noncut++
				}
			}
			if cut != m.Cut || noncut != m.NonCut {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignOrderAlignment(t *testing.T) {
	g := randomGraph(11, 40, 200)
	const parts = 6
	assign, err := partition.EdgePartition1D().Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraph(g, assign, parts)
	if err != nil {
		t.Fatal(err)
	}
	// Walking AssignOrder must reproduce every partition's edges in local
	// order with matching endpoints.
	cursor := make([]int, parts)
	verts := g.Vertices()
	for i, p := range pg.AssignOrder() {
		part := pg.Parts[p]
		sL, dL := part.EdgeAt(cursor[p])
		cursor[p]++
		src := verts[part.LocalVerts[sL]]
		dst := verts[part.LocalVerts[dL]]
		if src != g.Edges()[i].Src || dst != g.Edges()[i].Dst {
			t.Fatalf("edge %d: local (%d,%d) != global %v", i, src, dst, g.Edges()[i])
		}
	}
}

func TestForEachPartitionCoversAll(t *testing.T) {
	g := randomGraph(13, 30, 100)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 12)
	visited := make([]int32, 12)
	pg.ForEachPartition(func(p int) { visited[p]++ })
	for p, c := range visited {
		if c != 1 {
			t.Fatalf("partition %d visited %d times", p, c)
		}
	}
}

func TestEdgeConservation(t *testing.T) {
	check := func(seed uint64, partsRaw uint8) bool {
		numParts := 1 + int(partsRaw)%16
		g := randomGraph(seed, 40, 200)
		assign, err := partition.CanonicalRandomVertexCut().Partition(g, numParts)
		if err != nil {
			return false
		}
		pg, err := NewPartitionedGraph(g, assign, numParts)
		if err != nil {
			return false
		}
		total := 0
		for _, part := range pg.Parts {
			total += part.NumEdges()
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
