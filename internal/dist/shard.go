package dist

import (
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// ownedParts returns the partitions worker wIdx of W owns under the fixed
// modulo placement. Placement is a pure function of (partition, W) so the
// coordinator and tests never disagree about who owns what.
func ownedParts(numParts, wIdx, W int) []int {
	var owned []int
	for p := wIdx; p < numParts; p += W {
		owned = append(owned, p)
	}
	return owned
}

// workerOf returns the worker index that owns partition p.
func workerOf(p, W int) int { return p % W }

// shardKey is the content-addressed identity of one worker's shard of one
// topology generation.
func shardKey(g *graph.Graph, sum uint64, numParts, wIdx, W int) string {
	return fmt.Sprintf("%016x-%016x-p%d-w%d.%d", g.Fingerprint(), sum, numParts, wIdx, W)
}

// extractShard builds worker wIdx's shard payload: the whole vertex and
// out-degree tables, and the partition tables of the partitions it owns,
// ascending by index.
func extractShard(pg *pregel.PartitionedGraph, wIdx, W int) *snap.ShardPayload {
	g := pg.G
	owned := ownedParts(pg.NumParts, wIdx, W)
	sp := &snap.ShardPayload{
		GraphFP:  g.Fingerprint(),
		NumParts: pg.NumParts,
		NumVerts: g.NumVertices(),
		Verts:    g.Vertices(),
		OutDeg:   g.OutDegrees(),
		Owned:    make([]int32, len(owned)),
		Tables:   pg.Tables(owned),
	}
	for i, p := range owned {
		sp.Owned[i] = int32(p)
	}
	return sp
}
