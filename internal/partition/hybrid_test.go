package partition

import (
	"testing"

	"cutfit/internal/graph"
)

func TestHybridSplitsHubsGroupsLeaves(t *testing.T) {
	// A hub vertex 100 with many in-edges and a low-degree vertex 200.
	var edges []graph.Edge
	for i := int64(0); i < 50; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 100})
	}
	edges = append(edges,
		graph.Edge{Src: 1, Dst: 200},
		graph.Edge{Src: 2, Dst: 200},
		graph.Edge{Src: 3, Dst: 200},
	)
	g := graph.FromEdges(edges)
	assign, err := Hybrid(10).Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The hub's in-edges must land on more than one partition.
	hubParts := map[PID]bool{}
	for i := 0; i < 50; i++ {
		hubParts[assign[i]] = true
	}
	if len(hubParts) < 2 {
		t.Fatalf("hub in-edges on %d partitions, want spread", len(hubParts))
	}
	// The low-degree vertex's in-edges must be collocated.
	if assign[50] != assign[51] || assign[51] != assign[52] {
		t.Fatalf("low-degree in-edges split: %v", assign[50:53])
	}
}

func TestHybridThresholdValidation(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	if _, err := Hybrid(0).Partition(g, 4); err == nil {
		t.Fatal("threshold 0 should error")
	}
}

func TestHybridLowersReplicationOnSkew(t *testing.T) {
	// On a skewed graph hybrid should beat plain DC on replication factor.
	var edges []graph.Edge
	for i := int64(1); i <= 400; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 0}) // hub
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i%20 + 500)})
	}
	g := graph.FromEdges(edges)
	hy, err := Hybrid(50).Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := DestinationCut().Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid spreads the hub while keeping small vertices whole; its
	// balance must be far better than DC's (DC puts all hub edges in one
	// partition).
	counts := func(assign []PID) (max int) {
		var c [16]int
		for _, p := range assign {
			c[p]++
		}
		for _, n := range c {
			if n > max {
				max = n
			}
		}
		return max
	}
	if counts(hy) >= counts(dc) {
		t.Fatalf("hybrid max partition %d not below DC %d", counts(hy), counts(dc))
	}
}

func TestRangeContiguousBlocks(t *testing.T) {
	// Edges from consecutive IDs: range must produce non-decreasing PIDs
	// as the source ID grows.
	var edges []graph.Edge
	for i := int64(0); i < 100; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
	}
	g := graph.FromEdges(edges)
	assign, err := Range().Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(assign); i++ {
		if assign[i] < assign[i-1] {
			t.Fatalf("range PIDs not monotone at edge %d: %d then %d", i, assign[i-1], assign[i])
		}
	}
	// All four partitions used.
	used := map[PID]bool{}
	for _, p := range assign {
		used[p] = true
	}
	if len(used) != 4 {
		t.Fatalf("partitions used = %d, want 4", len(used))
	}
}

func TestRangeBeatsSCOnGridLocality(t *testing.T) {
	// On a path graph (the extreme of ID locality) range partitioning cuts
	// only the block boundary vertices; SC's modulo striping cuts nearly
	// everything.
	var edges []graph.Edge
	for i := int64(0); i < 1000; i++ {
		edges = append(edges,
			graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)},
			graph.Edge{Src: graph.VertexID(i + 1), Dst: graph.VertexID(i)})
	}
	g := graph.FromEdges(edges)
	cutOf := func(s Strategy) int {
		assign, err := s.Partition(g, 16)
		if err != nil {
			t.Fatal(err)
		}
		cut := 0
		for _, parts := range replicasOf(g, assign) {
			if len(parts) > 1 {
				cut++
			}
		}
		return cut
	}
	rangeCut := cutOf(Range())
	scCut := cutOf(SourceCut())
	if rangeCut*10 > scCut {
		t.Fatalf("range cut %d not an order below SC cut %d", rangeCut, scCut)
	}
}

func TestRangeEmptyGraph(t *testing.T) {
	assign, err := Range().Partition(graph.FromEdges(nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 0 {
		t.Fatal("empty graph should give empty assignment")
	}
}

func TestExtraStrategiesInRange(t *testing.T) {
	g := randomGraph(5, 100, 500)
	for _, s := range []Strategy{Hybrid(10), Range()} {
		for _, parts := range []int{1, 3, 16} {
			assign, err := s.Partition(g, parts)
			if err != nil {
				t.Fatalf("%s/%d: %v", s.Name(), parts, err)
			}
			for i, p := range assign {
				if p < 0 || int(p) >= parts {
					t.Fatalf("%s/%d: edge %d -> %d", s.Name(), parts, i, p)
				}
			}
		}
	}
}
