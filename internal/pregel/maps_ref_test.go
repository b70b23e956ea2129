package pregel

import (
	"fmt"
	"slices"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// newPartitionedGraphMaps is the original hash-map construction, kept here
// as the equivalence oracle for the sort/scatter build and as the baseline
// for BenchmarkPartitionBuild. Three sequential passes; one map[int32]int32
// per partition.
func newPartitionedGraphMaps(g *graph.Graph, assign []partition.PID, numParts int) (*PartitionedGraph, error) {
	if numParts <= 0 {
		return nil, fmt.Errorf("pregel: numParts must be positive, got %d", numParts)
	}
	edges := g.Edges()
	if len(assign) != len(edges) {
		return nil, fmt.Errorf("pregel: assignment has %d entries for %d edges", len(assign), len(edges))
	}

	parts := make([]*Partition, numParts)
	for p := range parts {
		parts[p] = &Partition{edgeSpan: &edgeSpan{}}
	}
	numDead := g.NumDeadEdges()
	counts := make([]int, numParts)
	for i := range edges {
		p := assign[i]
		if p < 0 || int(p) >= numParts {
			return nil, fmt.Errorf("pregel: edge %d assigned to out-of-range partition %d", i, p)
		}
		if numDead != 0 && !g.EdgeAlive(i) {
			continue
		}
		counts[p]++
	}
	type vset map[int32]int32
	seen := make([]vset, numParts)
	for p := range seen {
		seen[p] = make(vset)
	}
	for i, e := range edges {
		if numDead != 0 && !g.EdgeAlive(i) {
			continue
		}
		p := assign[i]
		si, _ := g.Index(e.Src)
		di, _ := g.Index(e.Dst)
		if _, ok := seen[p][si]; !ok {
			seen[p][si] = 0
		}
		if _, ok := seen[p][di]; !ok {
			seen[p][di] = 0
		}
	}
	for p := 0; p < numParts; p++ {
		lv := make([]int32, 0, len(seen[p]))
		for gidx := range seen[p] {
			lv = append(lv, gidx)
		}
		slices.Sort(lv)
		for l, gidx := range lv {
			seen[p][gidx] = int32(l)
		}
		parts[p].LocalVerts = lv
		parts[p].edges = make([]LocalEdge, 0, counts[p])
	}
	for i, e := range edges {
		if numDead != 0 && !g.EdgeAlive(i) {
			continue
		}
		p := assign[i]
		si, _ := g.Index(e.Src)
		di, _ := g.Index(e.Dst)
		parts[p].edges = append(parts[p].edges, LocalEdge{
			Src: seen[p][si],
			Dst: seen[p][di],
		})
	}
	return &PartitionedGraph{
		G:        g,
		NumParts: numParts,
		Parts:    parts,
		assign:   assign,
		scratch:  &scratchPool{},
	}, nil
}

// replicaCountsRef is the serial reference count of every vertex's
// replicas over nv global dense vertices, kept as the oracle for the sharded
// ReplicaCounts: one pass over the live mirror tables (ghosts are no
// replica). nil entries of parts contribute nothing.
func replicaCountsRef(nv int, parts []*Partition) []int32 {
	counts := make([]int32, nv)
	for _, part := range parts {
		if part == nil {
			continue
		}
		lv, _ := part.Live()
		for _, gidx := range lv {
			counts[gidx]++
		}
	}
	return counts
}
