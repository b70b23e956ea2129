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
// Nothing moves: a retracted edge's slot stays in its span, marked dead, and
// a mirror left with no live edge stays in LocalVerts as a ghost. A step
// that only retracts shares every partition's span and frontier index,
// built now or later, and writes two bitsets where it retracted; a step
// that appends copies each span with the suffix behind it (a suffix edge a
// later generation retracted takes a dead slot) and carries the frontier
// index (carryFrontierIndex). Live edges keep global edge order and the live
// mirror tables are the sorted tables a rebuild produces, so engine runs,
// metrics and everything read off Partition.Live are bit-for-bit what
// NewPartitionedGraphFromAssignment builds from scratch. Only the graph's
// own compaction (graph.Delta.Compacted) ends a span, by forcing that
// build. The receiver is only read, never mutated: in-flight runs on the
// old topology are unaffected.
//
// What the two topologies share, and who is charged (see Shares): the
// engine scratch pool — one per lineage, so the derived topology's first run
// revives buffers its parent parked, refitted to the new sizes, instead of
// allocating a set and leaving the parent's behind a topology nobody will
// run again; the assignment's PID array; every mirror table the step left
// unchanged and, on a retract-only step, the spans and frontier indexes
// (counted by both MemoryFootprints).
//
// Cost: a retract-only step is one pass over the old assignment plus
// O(|delta|) bitset work; an appending step is O(|E|) straight copies and
// merges plus O(|delta| log |delta|) sorting of the suffix endpoints — no
// per-partition endpoint re-sort, no strategy pass, no hash-map rebuild.
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

	// Retractions this step introduced, as slots of each partition's span;
	// nil when the step retracted nothing.
	removed, err := retractionPositions(pg, a.G, oldLen)
	if err != nil {
		return nil, err
	}
	npg := &PartitionedGraph{
		G:            a.G,
		NumParts:     numParts,
		assign:       a.PIDs,
		ReuseBuffers: pg.ReuseBuffers,
		scratch:      pg.scratch,
		spanDead:     pg.slotless(),
		hasSpanDead:  true,
	}
	npg.assignShare, _ = a.PIDShare()
	parts := make([]*Partition, numParts)
	npg.Parts = parts
	workers := par.DefaultParallelism()
	if ne == oldLen {
		// Retract only: no vertex came or went, so remap is the identity and
		// each partition keeps its mirror table, span and frontier index.
		err = par.ForEach(context.Background(), workers, numParts, func(p int) {
			old := pg.Parts[p]
			np := *old
			if removed != nil && len(removed[p]) != 0 {
				np.markDead(old, removed[p])
				np.markGhosts(old.ghost, removed[p])
			}
			parts[p] = &np
		})
		if err != nil {
			return nil, err
		}
		return npg, nil
	}

	// Dense endpoint indices of just the suffix: the ones the generation step
	// resolved when this topology's graph is its direct parent, else by
	// binary search on the grown vertex list — O(|delta| log |V|), without
	// forcing the grown graph's full per-edge endpoint view.
	var sufSrc, sufDst []int32
	if st := a.G.StepFrom(pg.G); st != nil && len(st.SufSrc) == ne-oldLen {
		sufSrc, sufDst = st.SufSrc, st.SufDst
	} else {
		verts := a.G.Vertices()
		sufEdges := a.G.EdgeRange(oldLen, ne)
		sufSrc = make([]int32, len(sufEdges))
		sufDst = make([]int32, len(sufEdges))
		for i, e := range sufEdges {
			si, _ := slices.BinarySearch(verts, e.Src)
			di, _ := slices.BinarySearch(verts, e.Dst)
			sufSrc[i], sufDst[i] = int32(si), int32(di)
		}
	}

	// Per-partition span sizes: the old span, dead slots and all, and the
	// suffix edges the assignment gives the partition (already
	// range-validated by the Assignment).
	partStart := make([]int64, numParts+1)
	for p, part := range pg.Parts {
		partStart[p+1] = int64(len(part.edges))
	}
	for _, p := range a.PIDs[oldLen:] {
		partStart[p+1]++
	}
	for p := 0; p < numParts; p++ {
		partStart[p+1] += partStart[p]
	}

	// Stage the suffix: scatter the new edges — with their *grown-graph*
	// dense endpoint indices — into the tail of each partition's span, in
	// global edge order (sequential pass, per-partition cursors). A suffix
	// edge a later generation retracted (an ancestor's topology patched
	// forward) takes its slot dead.
	edgeBuf := make([]LocalEdge, partStart[numParts])
	cursors := make([]int64, numParts)
	for p, part := range pg.Parts {
		cursors[p] = partStart[p] + int64(len(part.edges))
	}
	sufDead := a.G.NumDeadEdges() != 0
	for i := oldLen; i < ne; i++ {
		p := a.PIDs[i]
		edgeBuf[cursors[p]] = LocalEdge{Src: sufSrc[i-oldLen], Dst: sufDst[i-oldLen]}
		if sufDead && !a.G.EdgeAlive(i) {
			if removed == nil {
				removed = make([][]int32, numParts)
			}
			removed[p] = append(removed[p], int32(cursors[p]-partStart[p]))
		}
		cursors[p]++
	}

	err = par.ForEach(context.Background(), workers, numParts, func(p int) {
		old := pg.Parts[p]
		np := &Partition{edgeSpan: &edgeSpan{edges: edgeBuf[partStart[p]:partStart[p+1]:partStart[p+1]]}}
		var freshAt []int32
		np.LocalVerts, freshAt = patchPartition(old, np.edges, remap)
		if old.frontierBuilt.Load() {
			np.carryFrontierIndex(old, freshAt)
		}
		var gone []int32
		if removed != nil {
			gone = removed[p]
		}
		if old.nDead != 0 || len(gone) != 0 {
			np.markDead(old, gone)
		}
		if old.nGhost != 0 || len(gone) != 0 {
			np.markGhosts(np.inheritGhosts(old, freshAt), gone)
		}
		parts[p] = np
	})
	if err != nil {
		return nil, err
	}
	return npg, nil
}

// inheritGhosts returns old's ghosts renumbered to np, which patchPartition
// derived from old with the fresh mirrors freshAt, less the mirrors a live
// slot of the appended suffix references again. np's dead slots must be
// marked.
func (np *Partition) inheritGhosts(old *Partition, freshAt []int32) []uint64 {
	ghost := make([]uint64, (len(np.LocalVerts)+63)/64)
	f := 0 // fresh mirrors placed before the old local at hand
	for w, word := range old.ghost {
		for ; word != 0; word &= word - 1 {
			l := w<<6 + bits.TrailingZeros64(word)
			for f < len(freshAt) && int(freshAt[f]) <= l+f {
				f++
			}
			ghost[(l+f)>>6] |= 1 << (uint(l+f) & 63)
		}
	}
	for j := len(old.edges); j < len(np.edges); j++ {
		if e := np.edges[j]; !np.Dead(j) {
			ghost[e.Src>>6] &^= 1 << (uint32(e.Src) & 63)
			ghost[e.Dst>>6] &^= 1 << (uint32(e.Dst) & 63)
		}
	}
	return ghost
}

// markDead sets np's dead slots: old's, whose span np's begins with, plus
// the slots in gone. Neither old's set nor its storage is written.
func (np *Partition) markDead(old *Partition, gone []int32) {
	dead := make([]uint64, (len(np.edges)+63)/64)
	copy(dead, old.dead)
	for _, j := range gone {
		dead[j>>6] |= 1 << (uint32(j) & 63)
	}
	np.dead, np.nDead = dead, old.nDead+len(gone)
}

// markGhosts sets np's ghosts: the mirrors no live slot references. prev is
// the ghost set np inherited, in np's local numbering (never written), and
// only the endpoints of the slots in gone, which died since, can have
// joined it: a built frontier index finds their live slots, or, without
// one, a pass over the span marks every referenced mirror.
func (np *Partition) markGhosts(prev []uint64, gone []int32) {
	n := len(np.LocalVerts)
	ghost := make([]uint64, (n+63)/64)
	if len(gone) == 0 || np.frontierBuilt.Load() {
		copy(ghost, prev)
		for _, j := range gone {
			for _, l := range [2]int32{np.edges[j].Src, np.edges[j].Dst} {
				if !bitSet(ghost, int(l)) && !np.liveAt(l) {
					ghost[l>>6] |= 1 << (uint32(l) & 63)
				}
			}
		}
	} else {
		for j, e := range np.edges {
			if !np.Dead(j) {
				ghost[e.Src>>6] |= 1 << (uint32(e.Src) & 63)
				ghost[e.Dst>>6] |= 1 << (uint32(e.Dst) & 63)
			}
		}
		for w := range ghost {
			ghost[w] = ^ghost[w] & fullWord(w, n)
		}
	}
	count := 0
	for _, w := range ghost {
		count += bits.OnesCount64(w)
	}
	if count == 0 {
		ghost = nil
	}
	np.ghost, np.nGhost = ghost, count
}

// liveAt reports whether local vertex l is an endpoint of a live slot,
// through the frontier index, which must be built.
func (np *Partition) liveAt(l int32) bool {
	for _, j := range np.srcPos[np.srcOff[l]:np.srcOff[l+1]] {
		if !np.Dead(int(j)) {
			return true
		}
	}
	for _, j := range np.dstPos[np.dstOff[l]:np.dstOff[l+1]] {
		if !np.Dead(int(j)) {
			return true
		}
	}
	return false
}

// retractionChunk is the dense edge span one task of retractionPositions
// covers; a multiple of 64, so chunks split the tombstone bitsets at word
// boundaries.
const retractionChunk = 1 << 14

// retractionPositions diffs the tombstone bitsets of the built generation
// and the advanced one over the old dense span and returns, per partition,
// the ascending slots (in the partition's span, where the scatter put them
// against the tombstone set it skipped — see PartitionedGraph.spanDead) of
// the edges this step retracted. nil when nothing was retracted.
//
// The old dense span is cut into chunks spread over GOMAXPROCS workers. Each
// chunk counts its slotted positions per partition and notes its
// retractions at their slots within the chunk; a prefix sum over the
// chunks' counts, in chunk order, then turns those into slots of the
// partition's whole span.
func retractionPositions(pg *PartitionedGraph, ng *graph.Graph, oldLen int) ([][]int32, error) {
	og := pg.G
	newDead, oldDead, slotless := ng.Tombstones(), og.Tombstones(), pg.slotless()
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
	if err := par.ForEach(context.Background(), par.DefaultParallelism(), nChunks, func(c int) {
		cc := counts[c*numParts : (c+1)*numParts]
		hi := min((c+1)*retractionChunk, oldLen)
		// A tombstone word at a time: a word of slotted edges none of which
		// this step retracted only counts.
		for base := c * retractionChunk; base < hi; base += 64 {
			w := base >> 6
			slots, gone := fullWord(w, oldLen), uint64(0)
			if w < len(slotless) {
				slots &^= slotless[w]
			}
			if w < len(newDead) {
				gone = newDead[w]
				if w < len(oldDead) {
					gone &^= oldDead[w]
				}
			}
			assign := pg.assign[base:min(base+64, hi)]
			if slots == ^uint64(0) && gone == 0 {
				for _, p := range assign {
					cc[p]++
				}
				continue
			}
			for ; slots != 0; slots &= slots - 1 {
				b := bits.TrailingZeros64(slots)
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
// that appended, and returns its new LocalVerts table and the new local
// indices of the mirrors the step added (see mergedMirrors):
//
//  1. the old LocalVerts table is remapped to grown-graph dense indices
//     (remapping is monotone, so the table stays sorted);
//  2. suffix endpoints not yet mirrored in the partition are merge-inserted,
//     keeping the table sorted and deduplicated — exactly the table the
//     full rebuild's sort+dedup would produce;
//  3. the old slots, dead ones included, are copied into the span head with
//     their local indices shifted by the number of new mirrors inserted
//     before them;
//  4. the staged suffix edges (global indices) are rewritten in place to
//     local indices by binary search, as in the full build.
//
// It is called per partition on the worker pool; span is the partition's
// region of the new shared edge buffer, whose tail holds the staged suffix.
func patchPartition(old *Partition, span []LocalEdge, remap []int32) (merged, freshAt []int32) {
	merged, shift, freshAt := mergedMirrors(old, span, remap)
	oldEdges := old.edges
	if shift == nil {
		copy(span, oldEdges)
	} else {
		for j, e := range oldEdges {
			span[j] = LocalEdge{Src: e.Src + shift[e.Src], Dst: e.Dst + shift[e.Dst]}
		}
	}
	for j := len(oldEdges); j < len(span); j++ {
		e := span[j] // staged: grown-graph dense indices
		src, _ := slices.BinarySearch(merged, e.Src)
		dst, _ := slices.BinarySearch(merged, e.Dst)
		span[j] = LocalEdge{Src: int32(src), Dst: int32(dst)}
	}
	return merged, freshAt
}

// carryFrontierIndex gives np, which patchPartition derived from old, old's
// frontier index carried over instead of a counting sort. freshAt lists the
// new local indices of the mirrors the step added, ascending. Nothing
// moves, so old slot j is still slot j, and old locals keep their order
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
		srcKeys = append(srcKeys, uint64(e.Src)<<32|uint64(base+j))
		dstKeys = append(dstKeys, uint64(e.Dst)<<32|uint64(base+j))
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

// mergedMirrors computes the partition's new sorted mirror table, the new
// local indices of the mirrors it inserted (ascending; nil when none) and,
// when mirrors were inserted (not just appended), the per-old-local-index
// shift (shift[l] = number of new mirrors inserted before old entry l). A nil
// shift means old local indices are unchanged. The remap of the old table
// to grown-graph dense indices is fused into the merge/copy passes, so the
// only allocations are the outputs themselves.
func mergedMirrors(old *Partition, span []LocalEdge, remap []int32) (merged, shift, freshAt []int32) {
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
		if !contains(e.Src) {
			fresh = append(fresh, e.Src)
		}
		if e.Dst != e.Src && !contains(e.Dst) {
			fresh = append(fresh, e.Dst)
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
