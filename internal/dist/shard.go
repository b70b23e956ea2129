package dist

import (
	"fmt"
	"hash/fnv"
	"slices"

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

// keyFP folds a shard key string to the u64 the delta payload embeds as
// BaseFP, binding a delta to its base across the wire.
func keyFP(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// partTables flattens one partition into wire tables.
func partTables(part *pregel.Partition) (lv, src, dst []int32) {
	lv = part.LocalVerts
	ne := part.NumEdges()
	src = make([]int32, ne)
	dst = make([]int32, ne)
	for j := 0; j < ne; j++ {
		src[j], dst[j] = part.EdgeAt(j)
	}
	return lv, src, dst
}

// extractShard builds worker wIdx's full shard payload.
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
		lv, src, dst := partTables(pg.Parts[p])
		sp.Parts = append(sp.Parts, snap.ShardPart{
			Index:      p,
			Mode:       snap.ShardPartReplace,
			LocalVerts: lv,
			EdgeSrc:    src,
			EdgeDst:    dst,
		})
	}
	return sp
}

// partEqual reports whether two partitions hold identical tables.
func partEqual(a, b *pregel.Partition) bool {
	if !slices.Equal(a.LocalVerts, b.LocalVerts) || a.NumEdges() != b.NumEdges() {
		return false
	}
	for j := 0; j < a.NumEdges(); j++ {
		as, ad := a.EdgeAt(j)
		bs, bd := b.EdgeAt(j)
		if as != bs || ad != bd {
			return false
		}
	}
	return true
}

// partPrefix reports whether old is a strict table prefix of new — a Grow
// generation that only appended vertices and edges to the partition.
func partPrefix(old, new *pregel.Partition) bool {
	if len(old.LocalVerts) > len(new.LocalVerts) || old.NumEdges() > new.NumEdges() {
		return false
	}
	if !slices.Equal(old.LocalVerts, new.LocalVerts[:len(old.LocalVerts)]) {
		return false
	}
	for j := 0; j < old.NumEdges(); j++ {
		os, od := old.EdgeAt(j)
		ns, nd := new.EdgeAt(j)
		if os != ns || od != nd {
			return false
		}
	}
	return true
}

// diffShard builds a delta payload turning worker wIdx's shard of oldPG
// into its shard of newPG, or reports ok=false when a delta is not
// worthwhile (partition counts differ, or the dense vertex table is not an
// in-place extension — then the caller ships a full shard).
func diffShard(oldPG, newPG *pregel.PartitionedGraph, baseKey string, wIdx, W int) (*snap.ShardPayload, bool) {
	if oldPG.NumParts != newPG.NumParts {
		return nil, false
	}
	oldVerts := oldPG.G.Vertices()
	newVerts := newPG.G.Vertices()
	if len(oldVerts) > len(newVerts) || !slices.Equal(oldVerts, newVerts[:len(oldVerts)]) {
		return nil, false
	}
	sp := &snap.ShardPayload{
		GraphFP:     newPG.G.Fingerprint(),
		BaseFP:      keyFP(baseKey),
		NumParts:    newPG.NumParts,
		NumVerts:    len(newVerts),
		OldNumVerts: len(oldVerts),
		Verts:       newVerts[len(oldVerts):],
		// Out-degrees change wholesale on any topology edit (a Grow touches
		// existing sources), so the table always ships full.
		OutDeg: newPG.G.OutDegrees(),
	}
	for _, p := range ownedParts(newPG.NumParts, wIdx, W) {
		oldPart, newPart := oldPG.Parts[p], newPG.Parts[p]
		switch {
		case partEqual(oldPart, newPart):
			sp.Parts = append(sp.Parts, snap.ShardPart{Index: p, Mode: snap.ShardPartUnchanged})
		case partPrefix(oldPart, newPart):
			lv, src, dst := partTables(newPart)
			sp.Parts = append(sp.Parts, snap.ShardPart{
				Index:      p,
				Mode:       snap.ShardPartAppend,
				LocalVerts: lv[len(oldPart.LocalVerts):],
				EdgeSrc:    src[oldPart.NumEdges():],
				EdgeDst:    dst[oldPart.NumEdges():],
			})
		default:
			lv, src, dst := partTables(newPart)
			sp.Parts = append(sp.Parts, snap.ShardPart{
				Index:      p,
				Mode:       snap.ShardPartReplace,
				LocalVerts: lv,
				EdgeSrc:    src,
				EdgeDst:    dst,
			})
		}
	}
	return sp, true
}
