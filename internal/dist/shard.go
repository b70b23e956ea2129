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
// out-degree tables, and each owned partition flattened into wire tables,
// ascending by index.
func extractShard(pg *pregel.PartitionedGraph, wIdx, W int) *snap.ShardPayload {
	g := pg.G
	sp := &snap.ShardPayload{
		GraphFP:  g.Fingerprint(),
		NumParts: pg.NumParts,
		NumVerts: g.NumVertices(),
		Verts:    g.Vertices(),
		OutDeg:   g.OutDegrees(),
	}
	for _, p := range ownedParts(pg.NumParts, wIdx, W) {
		part := pg.Parts[p]
		ne := part.NumEdges()
		sp.Parts = append(sp.Parts, snap.ShardPart{
			Index:      p,
			LocalVerts: part.LocalVerts,
			EdgeSrc:    make([]int32, ne),
			EdgeDst:    make([]int32, ne),
		})
		sh := &sp.Parts[len(sp.Parts)-1]
		for j := range ne {
			sh.EdgeSrc[j], sh.EdgeDst[j] = part.EdgeAt(j)
		}
	}
	return sp
}
