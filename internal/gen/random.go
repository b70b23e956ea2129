package gen

import (
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/rng"
)

// ErdosRenyi generates a directed G(n, m) random graph: m directed edges
// drawn uniformly without self loops (duplicates possible, as in a
// multigraph edge stream). It is the degree-homogeneous null model against
// which the skew-sensitive behavior of partitioners is compared in tests
// and ablations.
func ErdosRenyi(n, m int, seed uint64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: Erdos-Renyi needs n >= 2, got %d", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("gen: Erdos-Renyi needs m >= 0, got %d", m)
	}
	r := rng.New(seed)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u := int64(r.Intn(n))
		v := int64(r.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
	}
	return graph.FromEdges(edges), nil
}
