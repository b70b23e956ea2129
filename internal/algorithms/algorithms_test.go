package algorithms

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
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

func mustPartition(t *testing.T, g *graph.Graph, s partition.Strategy, parts int) *pregel.PartitionedGraph {
	t.Helper()
	a, err := partition.Assign(g, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

var testStrategies = []partition.Strategy{
	partition.RandomVertexCut(),
	partition.EdgePartition1D(),
	partition.EdgePartition2D(),
	partition.CanonicalRandomVertexCut(),
	partition.SourceCut(),
	partition.DestinationCut(),
}

func TestPageRankMatchesOracle(t *testing.T) {
	check := func(seed uint64, partsRaw uint8) bool {
		numParts := 1 + int(partsRaw)%12
		g := randomGraph(seed, 40, 200)
		want := PageRankSeq(g, 5, DefaultResetProb)
		for _, s := range testStrategies {
			a, err := partition.Assign(g, s, numParts)
			if err != nil {
				return false
			}
			pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
			if err != nil {
				return false
			}
			got, _, err := PageRank(context.Background(), pg, 5, DefaultResetProb)
			if err != nil {
				return false
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankKnownChain(t *testing.T) {
	// 0 -> 1: after 1 iteration rank(1) = 0.15 + 0.85*1.0; rank(0) stays 1
	// (no in-edges under GraphX static PR semantics).
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	pg := mustPartition(t, g, partition.RandomVertexCut(), 2)
	ranks, _, err := PageRank(context.Background(), pg, 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if ranks[0] != 1.0 {
		t.Fatalf("rank(0) = %g, want 1.0", ranks[0])
	}
	if want := 0.15 + 0.85*1.0; math.Abs(ranks[1]-want) > 1e-12 {
		t.Fatalf("rank(1) = %g, want %g", ranks[1], want)
	}
}

func TestPageRankArgErrors(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	pg := mustPartition(t, g, partition.RandomVertexCut(), 1)
	if _, _, err := PageRank(context.Background(), pg, 0, 0.15); err == nil {
		t.Error("numIter=0 should error")
	}
	if _, _, err := PageRank(context.Background(), pg, 3, 1.5); err == nil {
		t.Error("resetProb out of range should error")
	}
}

func TestConnectedComponentsMatchesOracle(t *testing.T) {
	check := func(seed uint64, partsRaw uint8) bool {
		numParts := 1 + int(partsRaw)%12
		g := randomGraph(seed, 50, 120)
		want := ConnectedComponentsSeq(g)
		for _, s := range testStrategies {
			a, err := partition.Assign(g, s, numParts)
			if err != nil {
				return false
			}
			pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
			if err != nil {
				return false
			}
			got, stats, err := ConnectedComponents(context.Background(), pg, 0)
			if err != nil || !stats.Converged {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponentsIterationCap(t *testing.T) {
	// A long chain needs many rounds; capping at 2 must not converge to
	// the global minimum at the far end.
	n := 50
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	g := graph.FromEdges(edges)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 4)
	labels, stats, err := ConnectedComponents(context.Background(), pg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged {
		t.Fatal("2 iterations should not converge a 50-chain")
	}
	li, _ := g.Index(graph.VertexID(n - 1))
	if labels[li] == 0 {
		t.Fatal("far end of chain should not have the global min label yet")
	}
}

func TestCountComponents(t *testing.T) {
	labels := []graph.VertexID{0, 0, 5, 5, 9}
	if n := CountComponents(labels); n != 3 {
		t.Fatalf("CountComponents = %d, want 3", n)
	}
}

func TestTriangleCountMatchesOracle(t *testing.T) {
	check := func(seed uint64, partsRaw uint8) bool {
		numParts := 1 + int(partsRaw)%12
		g := randomGraph(seed, 30, 150)
		want := TriangleCountSeq(g)
		for _, s := range testStrategies {
			a, err := partition.Assign(g, s, numParts)
			if err != nil {
				return false
			}
			pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
			if err != nil {
				return false
			}
			got, _, err := TriangleCount(context.Background(), pg)
			if err != nil {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleCountK4(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3},
		{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3},
	})
	pg := mustPartition(t, g, partition.EdgePartition2D(), 3)
	counts, stats, err := TriangleCount(context.Background(), pg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 3 {
			t.Fatalf("vertex %d: %d triangles, want 3", i, c)
		}
	}
	if TotalTriangles(counts) != 4 {
		t.Fatalf("total = %d, want 4", TotalTriangles(counts))
	}
	if len(stats.Supersteps) != 1 {
		t.Fatalf("TR should be a single superstep, got %d", len(stats.Supersteps))
	}
}

func TestTriangleCountCancelled(t *testing.T) {
	g := randomGraph(3, 20, 50)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := TriangleCount(ctx, pg); err == nil {
		t.Fatal("cancelled context should abort")
	}
}

func TestShortestPathsMatchesOracle(t *testing.T) {
	check := func(seed uint64, partsRaw uint8) bool {
		numParts := 1 + int(partsRaw)%12
		g := randomGraph(seed, 40, 150)
		verts := g.Vertices()
		landmarks := []graph.VertexID{verts[0]}
		if len(verts) > 3 {
			landmarks = append(landmarks, verts[len(verts)/2])
		}
		want := ShortestPathsSeq(g, landmarks)
		for _, s := range testStrategies {
			a, err := partition.Assign(g, s, numParts)
			if err != nil {
				return false
			}
			pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
			if err != nil {
				return false
			}
			got, stats, err := ShortestPaths(context.Background(), pg, landmarks, 0)
			if err != nil || !stats.Converged {
				return false
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					return false
				}
				for l, d := range want[i] {
					if got[i][l] != d {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathsKnownChain(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, landmark 3: dist(v) = 3 - v.
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	pg := mustPartition(t, g, partition.RandomVertexCut(), 2)
	dists, _, err := ShortestPaths(context.Background(), pg, []graph.VertexID{3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		idx, _ := g.Index(graph.VertexID(i))
		if d, ok := dists[idx][3]; !ok || d != int32(3-i) {
			t.Fatalf("dist(%d -> 3) = %d,%v want %d", i, d, ok, 3-i)
		}
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	// 1 -> 0: vertex 0 cannot reach landmark 1 (edges are directed).
	g := graph.FromEdges([]graph.Edge{{Src: 1, Dst: 0}})
	pg := mustPartition(t, g, partition.RandomVertexCut(), 2)
	dists, _, err := ShortestPaths(context.Background(), pg, []graph.VertexID{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	i0, _ := g.Index(0)
	if _, ok := dists[i0][1]; ok {
		t.Fatal("vertex 0 should not reach landmark 1")
	}
	i1, _ := g.Index(1)
	if d := dists[i1][1]; d != 0 {
		t.Fatalf("landmark self distance = %d", d)
	}
}

func TestShortestPathsNeedsLandmarks(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	pg := mustPartition(t, g, partition.RandomVertexCut(), 1)
	if _, _, err := ShortestPaths(context.Background(), pg, nil, 0); err == nil {
		t.Fatal("no landmarks should error")
	}
}

// TestTriangleStatsCutSensitivity: the TR cost model's apply term must grow
// with the number of cut vertices, all else equal.
func TestTriangleStatsCutSensitivity(t *testing.T) {
	g := randomGraph(99, 60, 600)
	one := mustPartition(t, g, partition.RandomVertexCut(), 1)
	many := mustPartition(t, g, partition.RandomVertexCut(), 16)
	_, s1, err := TriangleCount(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	_, s16, err := TriangleCount(context.Background(), many)
	if err != nil {
		t.Fatal(err)
	}
	a1 := s1.Supersteps[0].ApplyPerShard[0]
	a16 := s16.Supersteps[0].ApplyPerShard[0]
	if a16 <= a1 {
		t.Fatalf("apply units with 16 parts (%.0f) not above 1 part (%.0f)", a16, a1)
	}
}
