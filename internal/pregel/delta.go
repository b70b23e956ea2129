package pregel

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"cutfit/internal/graph"
	"cutfit/internal/par"
	"cutfit/internal/partition"
)

// ApplyDelta derives the partitioned topology of an advanced graph — grown
// by an appended edge suffix, shrunk by tombstoned retractions, or both in
// one SlideWindow step — from this already-built topology, without
// re-running the sort-heavy full build. a must be the (extended) assignment
// of the advanced graph — its PID prefix must equal this topology's
// assignment bit-for-bit (verified; strategies whose prefix moved under
// growth, like Range, fail the check and the caller falls back to a full
// build; so does a compacted generation, whose dense positions no longer
// align). remap maps this topology's dense vertex indices to the advanced
// graph's, as produced by graph.RemapVertices; nil means identity (every
// vertex added since sorts after the old maximum).
//
// Retractions are patched out by diffing the two generations' tombstone
// bitsets over the old dense span: a newly-dead edge is dropped from its
// partition's span, and mirrors left with no referencing edge are dropped
// from the LocalVerts table — exactly what the full rebuild over the live
// edge set produces.
//
// The derived topology is structurally identical to what
// NewPartitionedGraphFromAssignment would build from scratch — same
// per-partition edge order (global edge order within each partition), same
// sorted LocalVerts tables, hence the same replica counts — so engine runs
// and derived metrics are bit-for-bit equal to the full rebuild. The receiver is only read, never mutated: in-flight runs on the
// old topology are unaffected.
//
// What the two topologies share, and who is charged (see Shares): the
// engine scratch pool — one per lineage, so the derived topology's first run
// revives buffers its parent parked, refitted to the new sizes, instead of
// allocating a set and leaving the parent's behind a topology nobody will
// run again; the assignment's PID array; every partition's mirror table
// that the step left unchanged (counted by both MemoryFootprints). Edge
// buffers are the derived topology's own, and so are the lazily built
// tables (frontier index, triangle plan). A partition the step
// appended to without retracting from it, whose parent already holds a
// frontier index, gets its own index at once, carried from the parent's by
// run copies (carryFrontierIndex) rather than left to a counting sort.
//
// Cost: O(|E|) straight copies and merges plus O(|delta| log |delta|)
// sorting of the suffix endpoints — no per-partition endpoint re-sort, no
// strategy pass, no hash-map rebuild.
func (pg *PartitionedGraph) ApplyDelta(a *partition.Assignment, remap []int32) (*PartitionedGraph, error) {
	if a.NumParts != pg.NumParts {
		return nil, fmt.Errorf("pregel: delta assignment targets %d partitions, topology has %d", a.NumParts, pg.NumParts)
	}
	oldLen := len(pg.assign)
	ne := len(a.PIDs)
	if ne < oldLen {
		return nil, fmt.Errorf("pregel: delta assignment covers %d edges, topology already has %d", ne, oldLen)
	}
	if a.G.NumEdges() != ne {
		return nil, fmt.Errorf("pregel: assignment has %d entries for %d edges", ne, a.G.NumEdges())
	}
	// Extend marks suffix-stable extensions; only unmarked assignments
	// (hand-built, or fully recomputed by a non-stable strategy like
	// Range) pay the defensive O(oldLen) prefix comparison.
	if ef, ok := a.ExtendedFrom(); !ok || ef > oldLen {
		if !slices.Equal(pg.assign, a.PIDs[:oldLen]) {
			return nil, fmt.Errorf("pregel: assignment prefix differs from built topology (strategy not suffix-stable)")
		}
	}
	numParts := pg.NumParts
	// Dense endpoint indices of just the suffix: the ones the generation step
	// resolved when this topology's graph is its direct parent, else by
	// binary search on the grown vertex list — O(|delta| log |V|), without
	// forcing the grown graph's full per-edge endpoint view.
	var sufSrc, sufDst []int32
	if st := a.G.StepFrom(pg.G); st != nil && len(st.SufSrc) == ne-oldLen {
		sufSrc, sufDst = st.SufSrc, st.SufDst
	} else {
		verts := a.G.Vertices()
		sufEdges, _ := a.G.EdgeRange(oldLen, ne)
		sufSrc = make([]int32, len(sufEdges))
		sufDst = make([]int32, len(sufEdges))
		for i, e := range sufEdges {
			si, _ := slices.BinarySearch(verts, e.Src)
			di, _ := slices.BinarySearch(verts, e.Dst)
			sufSrc[i], sufDst[i] = int32(si), int32(di)
		}
	}

	// Retractions this step introduced, as positions in each partition's old
	// (live) edge list; nil when the step retracted nothing.
	removed, err := retractionPositions(pg, a.G, oldLen)
	if err != nil {
		return nil, err
	}

	// Per-partition span sizes: old counts from the built partitions minus
	// this step's retractions, delta counts from the suffix (already
	// range-validated by the Assignment; appended edges are live, but skip
	// dead suffix slots defensively for hand-built generations).
	oldCounts := make([]int64, numParts)
	for p, part := range pg.Parts {
		oldCounts[p] = int64(len(part.edges))
		if removed != nil {
			oldCounts[p] -= int64(len(removed[p]))
		}
	}
	sufDead := a.G.NumDeadEdges()
	newCounts := make([]int64, numParts)
	for i := oldLen; i < ne; i++ {
		if sufDead != 0 && !a.G.EdgeAlive(i) {
			continue
		}
		newCounts[a.PIDs[i]]++
	}
	partStart := make([]int64, numParts+1)
	for p := 0; p < numParts; p++ {
		partStart[p+1] = partStart[p] + oldCounts[p] + newCounts[p]
	}

	// Stage the suffix: scatter the new edges — with their *grown-graph*
	// dense endpoint indices — into the tail of each partition's span, in
	// global edge order (sequential pass, per-partition cursors).
	edgeBuf := make([]localEdge, partStart[numParts])
	cursors := make([]int64, numParts)
	for p := 0; p < numParts; p++ {
		cursors[p] = partStart[p] + oldCounts[p]
	}
	for i := oldLen; i < ne; i++ {
		if sufDead != 0 && !a.G.EdgeAlive(i) {
			continue
		}
		p := a.PIDs[i]
		edgeBuf[cursors[p]] = localEdge{src: sufSrc[i-oldLen], dst: sufDst[i-oldLen]}
		cursors[p]++
	}

	npg := &PartitionedGraph{
		G:            a.G,
		NumParts:     numParts,
		assign:       a.PIDs,
		Parallelism:  pg.Parallelism,
		ReuseBuffers: pg.ReuseBuffers,
		scratch:      pg.scratch,
	}
	npg.assignShare, _ = a.PIDShare()
	parts := make([]*Partition, numParts)
	npg.Parts = parts
	err = par.ForEach(context.Background(), pg.Parallelism, numParts, func(p int) {
		old := pg.Parts[p]
		np := &Partition{edges: edgeBuf[partStart[p]:partStart[p+1]:partStart[p+1]]}
		if removed != nil && len(removed[p]) != 0 {
			// Retracting shifts every later edge position, and remapping them
			// all costs about what the counting sort does: the child builds
			// its frontier index lazily, like every other construction path.
			np.LocalVerts = patchPartitionRetract(old, np.edges, remap, removed[p])
		} else {
			var freshAt []int32
			np.LocalVerts, freshAt = patchPartition(old, np.edges, remap)
			if old.frontierBuilt.Load() {
				np.carryFrontierIndex(old, freshAt)
			}
		}
		parts[p] = np
	})
	if err != nil {
		return nil, err
	}
	return npg, nil
}

// retractionChunk is the dense edge span one task of retractionPositions
// covers; a multiple of 64, so chunks split the tombstone bitsets at word
// boundaries.
const retractionChunk = 1 << 14

// retractionPositions diffs the tombstone bitsets of the built generation
// and the advanced one over the old dense span and returns, per partition,
// the ascending positions (in the old partition's live edge list, the order
// the build scattered them in) of the edges this step retracted. nil when
// nothing was retracted.
//
// The old span is cut into chunks spread over Parallelism workers. Each chunk
// counts its live edges per partition and notes its retractions at their
// positions within the chunk; a prefix sum over the chunks' counts, in chunk
// order, then turns those into positions in the partition's whole list.
func retractionPositions(pg *PartitionedGraph, ng *graph.Graph, oldLen int) ([][]int32, error) {
	og := pg.G
	newDead, oldDead := ng.Tombstones(), og.Tombstones()
	found := false
	for w := 0; w<<6 < oldLen && w < len(newDead) && !found; w++ {
		d := newDead[w] & fullWord(w, oldLen)
		if w < len(oldDead) {
			d &^= oldDead[w]
		}
		found = d != 0
	}
	if !found {
		return nil, nil
	}
	numParts := pg.NumParts
	nChunks := (oldLen + retractionChunk - 1) / retractionChunk
	type hit struct{ p, pos int32 }
	hits := make([][]hit, nChunks)
	counts := make([]int32, nChunks*numParts)
	if err := par.ForEach(context.Background(), pg.Parallelism, nChunks, func(c int) {
		cc := counts[c*numParts : (c+1)*numParts]
		hi := min((c+1)*retractionChunk, oldLen)
		// A tombstone word at a time: a word of live edges none of which
		// this step retracted only counts.
		for base := c * retractionChunk; base < hi; base += 64 {
			w := base >> 6
			live, gone := fullWord(w, oldLen), uint64(0)
			if w < len(oldDead) {
				live &^= oldDead[w]
			}
			if w < len(newDead) {
				gone = newDead[w]
			}
			assign := pg.assign[base:min(base+64, hi)]
			if live == ^uint64(0) && gone == 0 {
				for _, p := range assign {
					cc[p]++
				}
				continue
			}
			for ; live != 0; live &= live - 1 {
				b := bits.TrailingZeros64(live)
				p := assign[b]
				if gone>>b&1 != 0 {
					hits[c] = append(hits[c], hit{int32(p), cc[p]})
				}
				cc[p]++
			}
		}
	}); err != nil {
		return nil, err
	}
	removed := make([][]int32, numParts)
	base := make([]int32, numParts)
	for c, hs := range hits {
		for _, h := range hs {
			removed[h.p] = append(removed[h.p], base[h.p]+h.pos)
		}
		for p, n := range counts[c*numParts : (c+1)*numParts] {
			base[p] += n
		}
	}
	return removed, nil
}

// patchPartition derives one partition of the advanced topology on a step
// that retracted none of its edges, and returns its new LocalVerts table and
// the new local indices of the mirrors the step added (see mergedMirrors):
//
//  1. the old LocalVerts table is remapped to grown-graph dense indices
//     (remapping is monotone, so the table stays sorted);
//  2. suffix endpoints not yet mirrored in the partition are merge-inserted,
//     keeping the table sorted and deduplicated — exactly the table the
//     full rebuild's sort+dedup would produce;
//  3. the old edges are copied into the span head with their local indices
//     shifted by the number of new mirrors inserted before them;
//  4. the staged suffix edges (global indices) are rewritten in place to
//     local indices by binary search, as in the full build.
//
// It is called per partition on the worker pool; span is the partition's
// region of the new shared edge buffer, whose tail holds the staged suffix.
func patchPartition(old *Partition, span []localEdge, remap []int32) (merged, freshAt []int32) {
	merged, shift, freshAt := mergedMirrors(old, span, remap)
	oldEdges := old.edges
	if shift == nil {
		copy(span, oldEdges)
	} else {
		for j, e := range oldEdges {
			span[j] = localEdge{src: e.src + shift[e.src], dst: e.dst + shift[e.dst]}
		}
	}
	for j := len(oldEdges); j < len(span); j++ {
		e := span[j] // staged: grown-graph dense indices
		src, _ := slices.BinarySearch(merged, e.src)
		dst, _ := slices.BinarySearch(merged, e.dst)
		span[j] = localEdge{src: int32(src), dst: int32(dst)}
	}
	return merged, freshAt
}

// carryFrontierIndex gives np, which patchPartition derived from old, old's
// frontier index carried over instead of a counting sort. freshAt lists the
// new local indices of the mirrors the step added, ascending. Nothing was
// retracted, so old edge j is still edge j, and old locals keep their order
// with the fresh mirrors slotted in between: every group of the child is its
// old local's group, unchanged, followed by the batch's positions (all ≥
// len(old.edges), so ascending after it), and a fresh mirror's group is batch
// positions only. One pass over the new locals writes the offsets; each run
// of old locals up to the next fresh mirror or batch edge costs one copy of
// the parent's positions. The result equals buildEdgeIndex on np. old's index
// must be built.
func (np *Partition) carryFrontierIndex(old *Partition, freshAt []int32) {
	base := len(old.edges)
	srcKeys := make([]uint64, 0, len(np.edges)-base)
	dstKeys := make([]uint64, 0, len(np.edges)-base)
	for j, e := range np.edges[base:] {
		srcKeys = append(srcKeys, uint64(e.src)<<32|uint64(base+j))
		dstKeys = append(dstKeys, uint64(e.dst)<<32|uint64(base+j))
	}
	// One allocation holds all four tables.
	n, m := len(np.LocalVerts), len(np.edges)
	buf := make([]int32, 2*(n+1)+2*m)
	np.frontierOnce.Do(func() {
		np.srcOff, np.srcPos = buf[:n+1:n+1], buf[n+1:n+1+m:n+1+m]
		np.dstOff, np.dstPos = buf[n+1+m:2*(n+1)+m:2*(n+1)+m], buf[2*(n+1)+m:]
		carryGroups(np.srcOff, np.srcPos, old.srcOff, old.srcPos, freshAt, srcKeys)
		carryGroups(np.dstOff, np.dstPos, old.dstOff, old.dstPos, freshAt, dstKeys)
	})
	np.frontierBuilt.Store(true)
	mFrontierCarried.Inc()
}

// carryGroups is one direction of carryFrontierIndex: it fills the child's
// off and pos from oldOff/oldPos, the parent's CSR, and keys, the batch edges
// as (new local << 32 | position).
func carryGroups(off, pos, oldOff, oldPos, freshAt []int32, keys []uint64) {
	slices.Sort(keys)
	n := len(off) - 1
	var d int32 // batch positions placed so far
	l, k, f := 0, 0, 0
	for L := 0; L < n; L++ {
		// New locals L … next-1 are old locals l, l+1, …: nothing was
		// inserted among them and none has a batch edge.
		next := n
		if k < len(keys) {
			next = int(keys[k] >> 32)
		}
		fresh := f < len(freshAt) && int(freshAt[f]) <= next
		if fresh {
			next = int(freshAt[f])
			f++
		}
		r := l + next - L
		dst, src := off[L+1:next+1], oldOff[l+1:r+1]
		for i, o := range src {
			dst[i] = o + d
		}
		// An old local with batch edges ends the run: the same copy takes its
		// old group along.
		if L = next; L < n && !fresh {
			r++
		}
		copy(pos[oldOff[l]+d:], oldPos[oldOff[l]:oldOff[r]])
		if l = r; L == n {
			break
		}
		for ; k < len(keys) && int(keys[k]>>32) == L; k++ {
			pos[oldOff[l]+d] = int32(uint32(keys[k]))
			d++
		}
		off[L+1] = oldOff[l] + d
	}
}

// patchPartitionRetract is the retraction path of patchPartition: drop the
// removed edge positions, drop mirrors no surviving or suffix edge
// references, merge-insert fresh suffix mirrors, and rewrite both edge
// halves to the merged table's local indices. Everything is O(part size)
// scans plus sorting only the (small) fresh mirror set — no per-partition
// endpoint re-sort — and the resulting table is exactly what the full
// rebuild's sort+dedup over the surviving edges produces.
func patchPartitionRetract(old *Partition, span []localEdge, remap, removed []int32) []int32 {
	lv := old.LocalVerts
	at := func(i int32) int32 {
		if remap == nil {
			return lv[i]
		}
		return remap[lv[i]]
	}
	// find locates an advanced-graph dense index in the remapped view of the
	// old table (monotone remap keeps it sorted) without materializing it.
	find := func(v int32) (int32, bool) {
		lo, hi := int32(0), int32(len(lv))
		for lo < hi {
			mid := int32(uint32(lo+hi) >> 1)
			if at(mid) < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < int32(len(lv)) && at(lo) == v {
			return lo, true
		}
		return 0, false
	}
	nOldSurvive := len(old.edges) - len(removed)
	// Mirrors referenced by surviving old edges.
	ref := make([]bool, len(lv))
	ri := 0
	for j, e := range old.edges {
		if ri < len(removed) && int32(j) == removed[ri] {
			ri++
			continue
		}
		ref[e.src] = true
		ref[e.dst] = true
	}
	// Suffix endpoints: an existing mirror is kept alive, an unknown one is
	// a fresh mirror to insert.
	var fresh []int32
	for _, e := range span[nOldSurvive:] {
		if l, ok := find(e.src); ok {
			ref[l] = true
		} else {
			fresh = append(fresh, e.src)
		}
		if e.dst != e.src {
			if l, ok := find(e.dst); ok {
				ref[l] = true
			} else {
				fresh = append(fresh, e.dst)
			}
		}
	}
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	// Merge referenced old mirrors with the fresh ones; both runs are sorted
	// and disjoint. shift[l] is old local l's index in the merged table (only
	// read for referenced mirrors).
	nRef := 0
	for _, r := range ref {
		if r {
			nRef++
		}
	}
	if nRef+len(fresh) == 0 {
		return nil
	}
	merged := make([]int32, 0, nRef+len(fresh))
	shift := make([]int32, len(lv))
	i, j := int32(0), 0
	for int(i) < len(lv) || j < len(fresh) {
		if j == len(fresh) || (int(i) < len(lv) && at(i) < fresh[j]) {
			if ref[i] {
				shift[i] = int32(len(merged))
				merged = append(merged, at(i))
			}
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	// Surviving old edges compact into the span head with rewritten locals.
	ri, w := 0, 0
	for j2, e := range old.edges {
		if ri < len(removed) && int32(j2) == removed[ri] {
			ri++
			continue
		}
		span[w] = localEdge{src: shift[e.src], dst: shift[e.dst]}
		w++
	}
	// Staged suffix edges rewrite to locals by binary search, as in the full
	// build.
	for j2 := nOldSurvive; j2 < len(span); j2++ {
		e := span[j2]
		src, _ := slices.BinarySearch(merged, e.src)
		dst, _ := slices.BinarySearch(merged, e.dst)
		span[j2] = localEdge{src: int32(src), dst: int32(dst)}
	}
	return merged
}

// mergedMirrors computes the partition's new sorted mirror table, the new
// local indices of the mirrors it inserted (ascending; nil when none) and,
// when mirrors were inserted (not just appended), the per-old-local-index
// shift (shift[l] = number of new mirrors inserted before old entry l). A nil
// shift means old local indices are unchanged. The remap of the old table
// to grown-graph dense indices is fused into the merge/copy passes, so the
// only allocations are the outputs themselves.
func mergedMirrors(old *Partition, span []localEdge, remap []int32) (merged, shift, freshAt []int32) {
	lv := old.LocalVerts
	// at maps an old-table entry to grown-graph dense indexing. Remapping
	// is monotone, so the remapped view of lv is still sorted and can be
	// binary-searched through the transform without materializing it.
	at := func(i int) int32 {
		if remap == nil {
			return lv[i]
		}
		return remap[lv[i]]
	}
	contains := func(v int32) bool {
		lo, hi := 0, len(lv)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if at(mid) < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(lv) && at(lo) == v
	}
	// Collect suffix endpoints not already mirrored here.
	var fresh []int32
	for _, e := range span[len(old.edges):] {
		if !contains(e.src) {
			fresh = append(fresh, e.src)
		}
		if e.dst != e.src && !contains(e.dst) {
			fresh = append(fresh, e.dst)
		}
	}
	if len(fresh) == 0 {
		if remap == nil {
			// Nothing inserted, nothing remapped: share the old table.
			return old.LocalVerts, nil, nil
		}
		merged = make([]int32, len(lv))
		for i := range lv {
			merged[i] = remap[lv[i]]
		}
		return merged, nil, nil
	}
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	merged = make([]int32, len(lv)+len(fresh))
	// All-new mirrors append past the old maximum: no index shifts.
	if len(lv) == 0 || fresh[0] > at(len(lv)-1) {
		if remap == nil {
			copy(merged, lv)
		} else {
			for i := range lv {
				merged[i] = remap[lv[i]]
			}
		}
		copy(merged[len(lv):], fresh)
		for j := range fresh {
			fresh[j] = int32(len(lv) + j)
		}
		return merged, nil, fresh
	}
	shift = make([]int32, len(lv))
	i, j, k := 0, 0, 0
	for i < len(lv) || j < len(fresh) {
		if j == len(fresh) || (i < len(lv) && at(i) < fresh[j]) {
			shift[i] = int32(j)
			merged[k] = at(i)
			i++
		} else {
			merged[k] = fresh[j]
			fresh[j] = int32(k) // consumed: now its local index
			j++
		}
		k++
	}
	return merged, shift, fresh
}
