package algorithms

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/rng"
)

// topRanksRef is topRanks as it was: a VertexRank for every vertex, fully
// sorted, cut to k.
func topRanksRef(g *graph.Graph, ranks []float64, k int) []VertexRank {
	verts := g.Vertices()
	all := make([]VertexRank, len(ranks))
	for i, r := range ranks {
		all[i] = VertexRank{Vertex: verts[i], Rank: r}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Rank != all[j].Rank {
			return all[i].Rank > all[j].Rank
		}
		return all[i].Vertex < all[j].Vertex
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k:k]
}

// TestTopRanksMatchesFullSort: the one-pass selection returns what sorting
// every vertex returned — same vertices, same order — on rank vectors with
// ties, negative and infinite ranks, and for every k including k > len.
func TestTopRanksMatchesFullSort(t *testing.T) {
	const n = 40
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(3 * i), Dst: graph.VertexID(3 * ((i + 1) % n))}
	}
	g := graph.FromEdges(edges)
	if g.NumVertices() != n {
		t.Fatalf("%d vertices, want %d", g.NumVertices(), n)
	}
	r := rng.New(9)
	vectors := map[string][]float64{
		"all equal":  make([]float64, n),
		"ascending":  make([]float64, n),
		"descending": make([]float64, n),
		"few values": make([]float64, n),
		"negative":   make([]float64, n),
		"random":     make([]float64, n),
		"infinite":   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		vectors["ascending"][i] = float64(i)
		vectors["descending"][i] = float64(-i)
		vectors["few values"][i] = float64(r.Uint64() % 3)
		vectors["negative"][i] = -float64(r.Uint64()%5) - 0.5
		vectors["random"][i] = r.Float64()
		vectors["infinite"][i] = []float64{math.Inf(1), math.Inf(-1), 0, 1}[r.Uint64()%4]
	}
	for name, ranks := range vectors {
		for _, k := range []int{0, 1, 2, 5, n - 1, n, n + 7} {
			got, want := topRanks(g, ranks, k), topRanksRef(g, ranks, k)
			if !reflect.DeepEqual(got, want) || cap(got) != cap(want) {
				t.Errorf("%s, k=%d:\n got %v\nwant %v", name, k, got, want)
			}
		}
	}
	if got := topRanks(graph.FromEdges(nil), nil, 5); len(got) != 0 {
		t.Errorf("empty graph: %v", got)
	}
}
