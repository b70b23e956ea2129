package pregel

import (
	"slices"

	"cutfit/internal/graph"
)

// TriangleRuns is one partition's share of the triangle plan: its canonical
// undirected edges — graph.CanonicalEdges restricted to the live edges the
// partition holds — as a CSR from hub to leaves, in the partition's live
// view (Partition.Live numbers the local vertices). An edge's hub is its
// endpoint with the larger undirected neighbor set (the source on ties), its
// leaf the other endpoint; both are local vertex indices. The leaves of
// local vertex l, one per canonical edge whose hub is l, are
// Leaf[Off[l]:Off[l+1]], in the partition's edge order.
type TriangleRuns struct {
	Off  []int32 // len NumLocalVertices+1
	Leaf []int32 // len = the partition's canonical edges
}

// TrianglePlan returns the topology's triangle plan, one TriangleRuns per
// partition. A Triangle Count kernel walks each hub marking its neighbor
// set once and probing it with every leaf's (shorter) set, so its work
// follows Σ min-degree instead of Σ (deg u + deg v). The grouping only
// steers that reuse: any split of an edge into hub and leaf yields the same
// counts.
//
// The plan is a pure function of the graph generation and the assignment,
// both immutable once the topology is built, so it is built on first use
// (like the frontier index: topologies that never count triangles pay
// nothing), shared by concurrent runs and never changes afterwards. It
// costs 4 bytes per canonical edge plus 4 per local vertex. Callers must
// not modify it.
func (pg *PartitionedGraph) TrianglePlan() []TriangleRuns {
	pg.triOnce.Do(func() {
		pg.triPlan = pg.buildTrianglePlan()
		pg.triBuilt.Store(true)
	})
	return pg.triPlan
}

func (pg *PartitionedGraph) buildTrianglePlan() []TriangleRuns {
	g := pg.G
	canon := g.CanonicalEdges()
	numDead := g.NumDeadEdges()

	// Partitions hold their live edges in global edge order (dead slots
	// aside, which the live views below drop), so one pass
	// over the assignment with a cursor per partition recovers every
	// canonical edge's local position. Tombstoned slots advance nothing.
	canonPos := make([][]int32, pg.NumParts)
	cursor := make([]int32, pg.NumParts)
	for i, p := range pg.assign {
		if numDead != 0 && !g.EdgeAlive(i) {
			continue
		}
		if canon[i>>6]&(1<<(uint(i)&63)) != 0 {
			canonPos[p] = append(canonPos[p], cursor[p])
		}
		cursor[p]++
	}

	// Bucket each partition's canonical edges by hub: a stable counting sort
	// keyed by the hub's local index, keeping the leaf.
	plan := make([]TriangleRuns, pg.NumParts)
	for p, part := range pg.Parts {
		pos := canonPos[p]
		lv, edges := part.Live()
		nLocal := len(lv)
		off := make([]int32, nLocal+1)
		for _, j := range pos {
			hub, _ := hubAndLeaf(g, lv, edges[j])
			off[hub+1]++
		}
		for l := 0; l < nLocal; l++ {
			off[l+1] += off[l]
		}
		leaf := make([]int32, len(pos))
		fill := slices.Clone(off[:nLocal]) // where each hub's next leaf goes
		for _, j := range pos {
			hub, lf := hubAndLeaf(g, lv, edges[j])
			leaf[fill[hub]] = lf
			fill[hub]++
		}
		plan[p] = TriangleRuns{Off: off, Leaf: leaf}
	}
	return plan
}

// hubAndLeaf splits a local edge over mirror table lv by the hub rule.
func hubAndLeaf(g *graph.Graph, lv []int32, e LocalEdge) (hub, leaf int32) {
	if len(g.UndirectedNeighbors(lv[e.Dst])) > len(g.UndirectedNeighbors(lv[e.Src])) {
		return e.Dst, e.Src
	}
	return e.Src, e.Dst
}
