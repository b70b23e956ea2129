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
	for _, replicas := range pg.ReplicaCounts() {
		switch {
		case replicas == 1:
			res.NonCut++
		case replicas > 1:
			res.Cut++
			res.CommCost += int64(replicas)
		}
	}
	res.Finalize(pg.G.NumVertices())
	return res
}
