package main

import (
	"testing"

	"cutfit"
	"cutfit/internal/graph"
)

// The rank check must accept any answer that is right to within the
// tolerance, however near-ties fall, and reject one that is not.
func TestRankOracleCheck(t *testing.T) {
	var edges []graph.Edge
	for v := 1; v <= 7; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(v)})
	}
	g := graph.FromEdges(edges)
	// Vertices 0..7; 3 and 4 are a near-tie, and so are 5 (fifth) and 6 (sixth).
	ref := map[cutfit.VertexID]float64{0: 1, 1: 8, 2: 7, 3: 6.001, 4: 6, 5: 5, 6: 4.999, 7: 2}
	ranks := make([]float64, g.NumVertices())
	for i, v := range g.Vertices() {
		ranks[i] = ref[v]
	}
	o := newRankOracle(g, ranks)
	list := func(vs ...cutfit.VertexID) []cutfit.VertexRank {
		out := make([]cutfit.VertexRank, len(vs))
		for i, v := range vs {
			out[i] = cutfit.VertexRank{Vertex: v, Rank: ref[v]}
		}
		return out
	}
	const tol = 1e-2
	if err := o.check(list(1, 2, 3, 4, 5), tol); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	swapped := list(1, 2, 4, 3, 6)
	swapped[2].Rank, swapped[3].Rank = 6.002, 6.0005 // within tol, other order, sixth for fifth
	if err := o.check(swapped, tol); err != nil {
		t.Errorf("near-tie answer rejected: %v", err)
	}
	for name, bad := range map[string][]cutfit.VertexRank{
		"short":      list(1, 2, 3, 4),
		"duplicate":  list(1, 2, 3, 3, 5),
		"ascending":  list(2, 1, 3, 4, 5),
		"not top":    list(1, 2, 3, 4, 7),
		"no vertex":  append(list(1, 2, 3, 4), cutfit.VertexRank{Vertex: 99, Rank: 5}),
		"wrong rank": append(list(1, 2, 3, 4), cutfit.VertexRank{Vertex: 5, Rank: 4.5}),
	} {
		if o.check(bad, tol) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := o.check(list(1, 2, 4, 3, 5), 1e-9); err == nil {
		t.Errorf("order of a 0.02 %% gap accepted at 1e-9")
	}
}
