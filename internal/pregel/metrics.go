package pregel

import "cutfit/internal/metrics"

// Metrics derives the full §3.1 metric set from the already-built
// partitioned topology. The per-partition edge lists and local vertex tables
// encode everything the metrics package would otherwise recompute with a
// per-vertex replica-bitset scan over all edges (O(|E| + |V|·numParts/64));
// here the same numbers fall out of the structure in O(|V| + mirrors):
//
//   - EdgesPerPart / VerticesPerPart are the partition sizes;
//   - ReplicaCounts counts every vertex's replicas off the local vertex
//     tables, giving NonCut, Cut and CommCost directly;
//   - the derived fields (Balance, PartStDev, MaxEdges, MaxVertices,
//     ReplicationFactor) come from metrics.Finalize, the same code every
//     other Result producer uses, so results are bit-for-bit identical to
//     metrics.FromAssignment on the originating assignment, each the
//     other's oracle.
//
// Any path that builds the topology anyway (run-after-measure, the bench
// grid) should read metrics here instead of calling
// metrics.FromAssignment.
//
// On a weighted graph one extra O(|E|) pass over the retained assignment
// accumulates the weighted counterparts (WeightPerPart, WeightedCommCost) in
// the same ascending-edge order metrics.FromAssignment uses, so the float
// sums are bit-for-bit identical too.
func (pg *PartitionedGraph) Metrics() *metrics.Result {
	numParts := pg.NumParts
	res := &metrics.Result{
		NumParts:        numParts,
		EdgesPerPart:    make([]int64, numParts),
		VerticesPerPart: make([]int64, numParts),
	}
	for p, part := range pg.Parts {
		res.EdgesPerPart[p] = int64(part.NumEdges())
		res.VerticesPerPart[p] = int64(part.NumLocalVertices())
	}
	nv := pg.G.NumVertices()
	var wdeg []float64
	if g := pg.G; g.Weighted() {
		numDead := g.NumDeadEdges()
		res.WeightPerPart = make([]float64, numParts)
		wdeg = make([]float64, nv)
		if err := g.ForEachEndpointBlock(0, g.NumEdges(), true, func(start int, sidx, didx []int32, weights []float64) error {
			for j := range sidx {
				i := start + j
				if numDead != 0 && !g.EdgeAlive(i) {
					continue
				}
				wt := weights[j]
				res.WeightPerPart[pg.assign[i]] += wt
				wdeg[sidx[j]] += wt
				wdeg[didx[j]] += wt
			}
			return nil
		}); err != nil {
			panic("pregel: block decode failed: " + err.Error())
		}
	}
	for v, replicas := range pg.ReplicaCounts() {
		switch {
		case replicas == 1:
			res.NonCut++
		case replicas > 1:
			res.Cut++
			res.CommCost += int64(replicas)
			if wdeg != nil {
				res.WeightedCommCost += float64(float64(replicas) * wdeg[v])
			}
		}
	}
	res.Finalize(nv)
	return res
}
