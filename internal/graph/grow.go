package graph

import (
	"fmt"
	"slices"
	"weak"
)

// Delta describes one generation step: the boundary between a parent graph
// and the generation derived from it by appending an edge suffix and/or
// tombstoning retracted edges. Incremental consumers (the artifact store's
// delta chain, the partitioned-topology patcher) use it to locate the
// suffix, to diff the tombstone sets, and to remap the parent's dense
// vertex indices into the child's.
type Delta struct {
	// Old is the parent generation; New is Old plus the appended suffix
	// and/or the retraction tombstones. Old == New means the step was a
	// no-op (empty suffix, nothing retracted) and no new generation was
	// minted.
	Old, New *Graph
	// OldLen is the parent's dense edge count: New.Edges()[:OldLen] is
	// exactly Old.Edges() (value-wise; liveness may differ — diff the
	// Tombstones bitsets for retractions), and New.Edges()[OldLen:] is the
	// appended suffix. When Compacted is set the prefix relationship does
	// not hold.
	OldLen int
	// OldVersion and NewVersion are the generations' version counters at
	// the time of the step, so cache keys recorded against either side
	// stay pinned even if a graph is later mutated in place.
	OldVersion, NewVersion uint64
	// OldVerts is the parent's sorted vertex list, shared (not copied) with
	// the parent. Callers must not modify it. RemapVertices turns it into a
	// dense-index remap against any descendant generation.
	OldVerts []VertexID
	// Compacted reports that the step rewrote the dense edge list to drop
	// accumulated tombstones: New's edge positions no longer align with
	// Old's, so per-edge artifacts cannot be patched across this boundary.
	// Delta consumers (the artifact store) skip compacted deltas, severing
	// the derivation chain; the child's artifacts are computed fresh.
	Compacted bool
}

// Step is what the generation step that minted a graph resolved about its
// batch, in the graph's own dense vertex indices, so incremental consumers
// deriving from the direct parent need not search the vertex list again.
// Read-only once published.
type Step struct {
	parent        weak.Pointer[Graph]
	parentVersion uint64
	// SufSrc and SufDst index the endpoints of the appended suffix — the
	// edges at dense positions [parent.NumEdges(), NumEdges()) — in order.
	SufSrc, SufDst []int32
	// RemSrc and RemDst index the endpoints of the edges the step retracted,
	// ascending by dense position; nil when the step did not resolve them
	// (it does only when it patches built degree tables).
	RemSrc, RemDst []int32
}

// StepFrom returns what the step that minted g resolved, when parent is the
// graph that step started from, as it was then; nil otherwise — an older
// ancestor, a graph not minted by a step (built, restored, compacted) or
// either graph mutated since.
func (g *Graph) StepFrom(parent *Graph) *Step {
	st := g.step
	if st == nil || st.parent.Value() != parent || parent.Version() != st.parentVersion {
		return nil
	}
	return st
}

// compactionThreshold is the tombstone density (dead/dense) at which a
// generation step compacts the edge list instead of accumulating more
// tombstones: once a quarter of the dense slots are dead, every scan pays
// more for skipping than a one-time rewrite costs.
const compactionThreshold = 4 // compact when numDead*compactionThreshold >= len(edges)

// Grow returns a new Graph — the next generation of g, holding g's edges
// followed by newEdges — without mutating g. The parent stays fully
// usable, so in-flight readers of g (concurrent algorithm runs, cache
// lookups) are never raced; growth is an O(|V| + |delta|)-ish derivation,
// not an O(|E|) rebuild:
//
//   - the vertex list is the parent's merged with the suffix's new IDs
//     (shared outright when the suffix adds no vertices);
//   - degree and edge-endpoint views are carried over — remapped if new
//     vertices shifted dense indices — and patched with the suffix;
//   - the ID->index map and the CSR adjacency views stay lazy.
//
// What is shared and who pays: the edge list (and weights, and the endpoint
// view) is copied once, on a graph's first Grow, into a backing array with
// spare capacity (Tail); from then on each generation of the lineage holds a
// length- and capacity-clamped slice of that one array and Grow writes only
// the suffix into slots no existing generation covers. A second child of
// the same parent, or a parent since mutated by AddEdge, loses the claim
// and copies, so no generation can ever observe another's edges, and
// AddEdge on any generation still reallocates. Shares reports the array
// under one key from every generation of the lineage, so a cache charges it
// once however many generations it holds. The vertex list is shared when the
// suffix adds no vertex, the tombstone bitset when the step retracts
// nothing; degree tables are per generation. The new generation starts at a
// fresh process-unique version.
//
// An empty suffix is a no-op: Grow returns g itself (Delta.Old ==
// Delta.New), never minting a content-identical generation that would
// orphan every cached artifact key.
//
// Grow only reads g through its concurrency-safe view builders, so it may
// run while other goroutines read g.
func (g *Graph) Grow(newEdges []Edge) (*Graph, Delta) {
	return g.advance(newEdges, nil, nil)
}

// GrowWeighted is Grow with per-edge weights for the appended suffix
// (weights[i] belongs to newEdges[i]; nil means weight 1 each). Growing an
// unweighted parent with a weighted suffix promotes the child to weighted
// — the parent's edges keep weight 1.
func (g *Graph) GrowWeighted(newEdges []Edge, weights []float64) (*Graph, Delta, error) {
	if weights != nil && len(weights) != len(newEdges) {
		return nil, Delta{}, fmt.Errorf("graph: %d weights for %d appended edges", len(weights), len(newEdges))
	}
	ng, d := g.advance(newEdges, weights, nil)
	return ng, d, nil
}

// advance is the one generation-step primitive behind Grow, GrowWeighted,
// Shrink, ShrinkBefore and SlideWindow: append suffix (with optional
// weights) and tombstone the dense positions in removeIdx, producing a new
// generation without mutating g. removeIdx must be sorted ascending,
// deduplicated, in [0, len(g.edges)), and every listed position must be
// live in g — callers resolve and validate. A step with nothing to do
// returns g itself (Delta.Old == Delta.New). A step that pushes tombstone
// density past the compaction threshold rewrites the dense list instead
// (Delta.Compacted).
func (g *Graph) advance(suffix []Edge, sufWeights []float64, removeIdx []int) (*Graph, Delta) {
	oldLen := g.NumEdges()
	oldVerts := g.Vertices()

	if len(suffix) == 0 && len(removeIdx) == 0 {
		v := g.Version()
		return g, Delta{
			Old: g, New: g,
			OldLen:     oldLen,
			OldVersion: v, NewVersion: v,
			OldVerts: oldVerts,
		}
	}

	childWeighted := g.Weighted() || sufWeights != nil

	var ng *Graph
	if g.blocks != nil && !g.denseOnce.built() {
		// Block tier: a pure shrink shares the immutable store outright;
		// an append extends it, sharing every sealed full block with the
		// parent and re-encoding only the partial tail merged with the
		// suffix. Either way the child stays block-backed.
		if len(suffix) == 0 {
			ng = FromBlocks(g.blocks)
		} else {
			ext, err := g.blocks.extend(suffix, sufWeights, childWeighted)
			if err != nil {
				panic("graph: block decode failed: " + err.Error())
			}
			ng = FromBlocks(ext)
		}
	} else if len(suffix) == 0 {
		// Pure shrink: the dense list is unchanged, so the child shares the
		// parent's edge slice (capacity-clamped — neither generation can
		// append into the other) and, when weighted, the weight slice. It
		// shares the backing arrays' spare capacity too: whichever of the two
		// grows first extends in place, the other copies.
		ng = FromEdges(g.edges[:oldLen:oldLen])
		ng.edgesTail = g.edgesTail
		if childWeighted {
			ng.weights, ng.weightsTail = g.weights[:oldLen:oldLen], g.weightsTail
		}
	} else {
		// Append: claim the suffix's slots in the lineage's backing arrays,
		// copying only when there is no spare capacity to claim (the first
		// growth of a graph, a second child of one parent, a full array).
		ng = &Graph{}
		ng.edges, ng.edgesTail = g.edgesTail.Extend(g.edges, suffix)
		if childWeighted {
			prefixW, sufW := g.weights, sufWeights
			if prefixW == nil {
				prefixW = slices.Repeat([]float64{1}, oldLen) // promotion: the parent's edges keep weight 1
			}
			if sufW == nil {
				sufW = slices.Repeat([]float64{1}, len(suffix))
			}
			ng.weights, ng.weightsTail = g.weightsTail.Extend(prefixW, sufW)
		}
	}
	ng.version.Store(nextGenerationVersion())

	// Tombstones: the parent's set plus this step's retractions.
	if len(removeIdx) > 0 {
		words := (removeIdx[len(removeIdx)-1] >> 6) + 1
		if len(g.dead) > words {
			words = len(g.dead)
		}
		dead := make([]uint64, words)
		copy(dead, g.dead)
		for _, i := range removeIdx {
			dead[i>>6] |= 1 << (uint(i) & 63)
		}
		ng.dead = dead
		ng.numDead = g.numDead + len(removeIdx)
	} else if g.numDead > 0 {
		ng.dead = g.dead // shared; both generations treat it as immutable
		ng.numDead = g.numDead
	}

	// Past the compaction threshold, rewrite the dense list instead of
	// handing out an ever-sparser generation.
	if ng.numDead > 0 && ng.numDead*compactionThreshold >= ng.NumEdges() {
		compacted := ng.compact()
		return compacted, Delta{
			Old: g, New: compacted,
			OldLen:     oldLen,
			OldVersion: g.Version(), NewVersion: compacted.Version(),
			OldVerts:  oldVerts,
			Compacted: true,
		}
	}

	// The content fingerprint chains sequentially over the edge list, so a
	// parent's built fingerprint extends to the child by folding only the
	// suffix and re-folding the tombstone set. The chain only holds when
	// parent and child agree on weightedness (promoting to weighted
	// re-folds the prefix with weights, so the view stays lazy then).
	if g.fpOnce.built() && g.Weighted() == childWeighted {
		switch {
		case !childWeighted:
			ng.fpEdges = foldFingerprint(g.fpEdges, suffix)
		case sufWeights != nil:
			ng.fpEdges = foldFingerprintW(g.fpEdges, suffix, sufWeights)
		default:
			ng.fpEdges = foldFingerprintOnes(g.fpEdges, suffix)
		}
		ng.fp = foldDeadFingerprint(ng.fpEdges, ng.dead, ng.numDead)
		ng.fpOnce.markBuilt()
	}

	// New vertex IDs introduced by the suffix: endpoints absent from the
	// parent's sorted list. Retraction never removes vertices — tombstoned
	// edges keep their endpoints listed until compaction — so the vertex
	// set can only grow. The same search leaves each endpoint's rank among
	// the old vertices in sufSrc/sufDst.
	sufSrc := make([]int32, len(suffix))
	sufDst := make([]int32, len(suffix))
	var added []VertexID
	for i, e := range suffix {
		si, ok := slices.BinarySearch(oldVerts, e.Src)
		if !ok {
			added = append(added, e.Src)
		}
		di, ok := slices.BinarySearch(oldVerts, e.Dst)
		if !ok {
			added = append(added, e.Dst)
		}
		sufSrc[i], sufDst[i] = int32(si), int32(di)
	}
	slices.Sort(added)
	added = slices.Compact(added)

	// Merged vertex list and the old->new dense index remap. When every
	// added ID sorts after the old maximum (the common growth pattern),
	// old dense indices are unchanged and the remap stays nil.
	var remap []int32
	if len(added) == 0 {
		ng.verts = oldVerts // shared; both generations treat it as immutable
	} else if len(oldVerts) == 0 || added[0] > oldVerts[len(oldVerts)-1] {
		merged := make([]VertexID, len(oldVerts)+len(added))
		copy(merged, oldVerts)
		copy(merged[len(oldVerts):], added)
		ng.verts = merged
	} else {
		merged := make([]VertexID, 0, len(oldVerts)+len(added))
		remap = make([]int32, len(oldVerts))
		i, j := 0, 0
		for i < len(oldVerts) || j < len(added) {
			if j == len(added) || (i < len(oldVerts) && oldVerts[i] < added[j]) {
				remap[i] = int32(len(merged))
				merged = append(merged, oldVerts[i])
				i++
			} else {
				merged = append(merged, added[j])
				j++
			}
		}
		ng.verts = merged
	}
	ng.vertsOnce.markBuilt()

	// Dense endpoint indices of the suffix, shared by the degree and
	// endpoint seeding below and carried on the generation (Step): a vertex's
	// index in the merged list is its rank among the old vertices plus its
	// rank among the added ones.
	if len(added) > 0 {
		for i, e := range suffix {
			si, _ := slices.BinarySearch(added, e.Src)
			di, _ := slices.BinarySearch(added, e.Dst)
			sufSrc[i] += int32(si)
			sufDst[i] += int32(di)
		}
	}
	step := &Step{parent: weak.Make(g), parentVersion: g.Version(), SufSrc: sufSrc, SufDst: sufDst}
	ng.step = step

	nv := len(ng.verts)
	if g.degOnce.built() {
		out := make([]int32, nv)
		in := make([]int32, nv)
		if remap == nil {
			copy(out, g.outDeg)
			copy(in, g.inDeg)
		} else {
			for i := range g.outDeg {
				out[remap[i]] = g.outDeg[i]
				in[remap[i]] = g.inDeg[i]
			}
		}
		for i := range suffix {
			out[sufSrc[i]]++
			in[sufDst[i]]++
		}
		step.RemSrc = make([]int32, len(removeIdx))
		step.RemDst = make([]int32, len(removeIdx))
		for k, i := range removeIdx {
			e := g.edgeAt(i)
			si, _ := slices.BinarySearch(ng.verts, e.Src)
			di, _ := slices.BinarySearch(ng.verts, e.Dst)
			step.RemSrc[k], step.RemDst[k] = int32(si), int32(di)
			out[si]--
			in[di]--
		}
		ng.outDeg, ng.inDeg = out, in
		ng.degOnce.markBuilt()
	}
	// Endpoint views are carried over only when old dense indices survive
	// (remap == nil): the seed is then two memcpys — or, on a pure shrink,
	// shared outright (tombstoned slots keep their endpoint entries, so
	// the aligned view is unchanged). When indices shifted, the per-edge
	// remap pass would cost more than most consumers save — the delta
	// topology patcher only needs suffix endpoints, which it computes
	// itself — so the view is left lazy instead.
	if remap == nil && g.endpointOnce.built() {
		if len(suffix) == 0 {
			ng.srcIdx, ng.dstIdx = g.srcIdx, g.dstIdx
			ng.srcTail, ng.dstTail = g.srcTail, g.dstTail
		} else {
			ng.srcIdx, ng.srcTail = g.srcTail.Extend(g.srcIdx, sufSrc)
			ng.dstIdx, ng.dstTail = g.dstTail.Extend(g.dstIdx, sufDst)
		}
		ng.endpointOnce.markBuilt()
	}

	return ng, Delta{
		Old: g, New: ng,
		OldLen:     oldLen,
		OldVersion: g.Version(), NewVersion: ng.Version(),
		OldVerts: oldVerts,
	}
}

// compact rewrites the dense edge list of a tombstoned graph, dropping
// dead slots (and their weights). The result is a fresh generation with no
// tombstones and fully lazy views — vertices that only backed dead edges
// disappear here, which is why per-edge artifacts cannot survive the
// boundary.
func (g *Graph) compact() *Graph {
	if g.blocks != nil && !g.denseOnce.built() {
		// Stream live runs into a fresh block store; the compacted
		// generation keeps the block tier.
		bb := NewBlockBuilder(g.blocks.blockEdges)
		g.mustEdgeBlocks(func(start int, edges []Edge, weights []float64) {
			runStart := -1
			flush := func(end int) {
				if runStart < 0 {
					return
				}
				if weights != nil {
					bb.Append(edges[runStart:end], weights[runStart:end])
				} else {
					bb.Append(edges[runStart:end], nil)
				}
				runStart = -1
			}
			for i := range edges {
				if g.EdgeAlive(start + i) {
					if runStart < 0 {
						runStart = i
					}
				} else {
					flush(i)
				}
			}
			flush(len(edges))
		})
		return FromBlocks(bb.Finish())
	}
	edges := make([]Edge, 0, len(g.edges)-g.numDead)
	var weights []float64
	if g.weights != nil {
		weights = make([]float64, 0, len(g.edges)-g.numDead)
	}
	for i, e := range g.edges {
		if !g.EdgeAlive(i) {
			continue
		}
		edges = append(edges, e)
		if weights != nil {
			weights = append(weights, g.weights[i])
		}
	}
	out := FromEdges(edges)
	out.weights = weights
	out.version.Store(nextGenerationVersion())
	return out
}

// RemapVertices returns the dense-index remap from a sorted ancestor
// vertex list to a descendant generation: remap[oldDense] is the vertex's
// dense index in target. A nil, nil return means identity — every old
// vertex keeps its dense index (all vertices added since sort after the
// old maximum). An old vertex missing from target is an error: generation
// steps never remove vertices short of compaction, so it signals a
// mismatched (ancestor, target) pair or a compaction boundary.
func RemapVertices(oldVerts []VertexID, target *Graph) ([]int32, error) {
	newVerts := target.Vertices()
	if len(oldVerts) > len(newVerts) {
		return nil, fmt.Errorf("graph: remap target has %d vertices, ancestor had %d", len(newVerts), len(oldVerts))
	}
	identity := true
	for i, v := range oldVerts {
		if newVerts[i] != v {
			identity = false
			break
		}
	}
	if identity {
		return nil, nil
	}
	remap := make([]int32, len(oldVerts))
	j := 0
	for i, v := range oldVerts {
		for j < len(newVerts) && newVerts[j] < v {
			j++
		}
		if j == len(newVerts) || newVerts[j] != v {
			return nil, fmt.Errorf("graph: vertex %d missing from remap target", v)
		}
		remap[i] = int32(j)
		j++
	}
	return remap, nil
}
