package pregel

import (
	"fmt"
	"slices"

	"cutfit/internal/graph"
	"cutfit/internal/par"
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
		parts[p] = &Partition{}
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
		parts[p].edges = make([]localEdge, 0, counts[p])
	}
	for i, e := range edges {
		if numDead != 0 && !g.EdgeAlive(i) {
			continue
		}
		p := assign[i]
		si, _ := g.Index(e.Src)
		di, _ := g.Index(e.Dst)
		parts[p].edges = append(parts[p].edges, localEdge{
			src: seen[p][si],
			dst: seen[p][di],
		})
	}
	return &PartitionedGraph{
		G:           g,
		NumParts:    numParts,
		Parts:       parts,
		assign:      assign,
		Parallelism: par.DefaultParallelism(),
		scratch:     &scratchPool{},
	}, nil
}

// routingCSR is the serial reference construction of the mirror routing CSR
// over nv global dense vertices, kept as the oracle for the sharded lazy
// build: one counting pass, a prefix sum, and a fill that walks the
// partitions ascending, so a vertex's refs ascend by partition. nil entries
// of parts contribute nothing.
func routingCSR(nv int, parts []*Partition) (offsets []int64, refs []MirrorRef) {
	offsets = make([]int64, nv+1)
	for _, part := range parts {
		if part == nil {
			continue
		}
		for _, gidx := range part.LocalVerts {
			offsets[gidx+1]++
		}
	}
	for i := 0; i < nv; i++ {
		offsets[i+1] += offsets[i]
	}
	refs = make([]MirrorRef, offsets[nv])
	cursor := slices.Clone(offsets[:nv])
	for p, part := range parts {
		if part == nil {
			continue
		}
		for l, gidx := range part.LocalVerts {
			refs[cursor[gidx]] = MirrorRef{Part: int32(p), Local: int32(l)}
			cursor[gidx]++
		}
	}
	return offsets, refs
}
