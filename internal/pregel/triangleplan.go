package pregel

// TrianglePlan returns the topology's triangle plan: for every partition,
// the positions (into the partition's edge list) of its canonical
// undirected edges — graph.CanonicalEdges restricted to the live edges the
// partition holds — ordered so that edges sharing a hub (see
// Partition.TriangleHub) are adjacent; within a hub's run positions ascend.
// A Triangle Count kernel walks each run marking the hub's neighbor set
// once and probing it with every other endpoint's (shorter) set, so its
// work follows Σ min-degree instead of Σ (deg u + deg v). The grouping only
// steers that reuse: any order of the same positions yields the same
// counts.
//
// The plan is a pure function of the graph generation and the assignment,
// both immutable once the topology is built, so it is built on first use
// (like the frontier index: topologies that never count triangles pay
// nothing), shared by concurrent runs and never changes afterwards. It
// costs 4 bytes per canonical edge. Callers must not modify it.
func (pg *PartitionedGraph) TrianglePlan() [][]int32 {
	pg.triOnce.Do(func() {
		pg.triPlan = pg.buildTrianglePlan()
		pg.triBuilt.Store(true)
	})
	return pg.triPlan
}

func (pg *PartitionedGraph) buildTrianglePlan() [][]int32 {
	g := pg.G
	canon := g.CanonicalEdges()
	numDead := g.NumDeadEdges()

	// Partitions hold their live edges in global edge order, so one pass
	// over the assignment with a cursor per partition recovers every
	// canonical edge's local position. Tombstoned slots advance nothing.
	inOrder := make([][]int32, pg.NumParts)
	cursor := make([]int32, pg.NumParts)
	for i, p := range pg.assign {
		if numDead != 0 && !g.EdgeAlive(i) {
			continue
		}
		if canon[i>>6]&(1<<(uint(i)&63)) != 0 {
			inOrder[p] = append(inOrder[p], cursor[p])
		}
		cursor[p]++
	}

	// Group each partition's positions by hub: a stable counting sort keyed
	// by the hub's local index.
	off, _ := g.UndirectedAdjacency()
	plan := make([][]int32, pg.NumParts)
	for p, part := range pg.Parts {
		pos := inOrder[p]
		hubs := make([]int32, len(pos))
		start := make([]int32, part.NumLocalVertices()+1)
		for k, j := range pos {
			h := part.TriangleHub(j, off)
			hubs[k] = h
			start[h+1]++
		}
		for l := 1; l < len(start); l++ {
			start[l] += start[l-1]
		}
		grouped := make([]int32, len(pos))
		for k, j := range pos {
			grouped[start[hubs[k]]] = j
			start[hubs[k]]++
		}
		plan[p] = grouped
	}
	return plan
}

// TriangleHub returns the hub of the partition's j-th edge, as a local
// vertex index: the endpoint with the larger undirected neighbor set, the
// source on ties. off is the graph's UndirectedAdjacency offsets. The plan
// groups by this rule and a kernel finds the runs again with it.
func (p *Partition) TriangleHub(j int32, off []int64) int32 {
	e := p.edges[j]
	s, d := p.LocalVerts[e.src], p.LocalVerts[e.dst]
	if off[d+1]-off[d] > off[s+1]-off[s] {
		return e.dst
	}
	return e.src
}
