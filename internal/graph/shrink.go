package graph

import (
	"fmt"
	"math/bits"

	"cutfit/internal/par"
)

// Shrink returns a new Graph — the next generation of g with the given
// edges retracted — without mutating g, mirroring Grow's race-free
// parent-untouched contract. Retraction tombstones dense edge positions
// rather than splicing the list, so per-edge artifacts computed against
// the parent (assignments, scattered topologies) stay index-aligned and
// can be patched instead of rebuilt; see Delta and the pregel package's
// ApplyDelta.
//
// Each element of retract removes one occurrence of that edge value, the
// oldest live occurrence first (FIFO, matching multigraph append order).
// Retracting more occurrences than are live is not an error as long as
// the value appears in the graph at all — surplus retractions of an
// already-tombstoned value are skipped, so replayed or duplicated
// retraction batches are idempotent. An edge value that never appears in
// the dense list is an error. A batch that nets zero retractions returns
// g itself (Delta.Old == Delta.New), minting no generation.
//
// Once tombstones pass the compaction threshold (a quarter of dense
// slots), the step rewrites the dense list instead and marks the Delta
// Compacted; per-edge artifacts cannot be patched across that boundary.
func (g *Graph) Shrink(retract []Edge) (*Graph, Delta, error) {
	removeIdx, err := g.resolveRetractions(retract)
	if err != nil {
		return nil, Delta{}, err
	}
	ng, d := g.advance(nil, removeIdx)
	return ng, d, nil
}

// SlideWindow is the general generation step: append newEdges and expire
// every live edge at a dense position < expireBefore — older than the
// expireBefore-th append — in ONE step: one generation, one Delta.
// expireBefore is clamped to the parent's edge count, so the suffix is
// never expired by the same step. SlideWindow(e, 0) is an append,
// SlideWindow(nil, n) an expiry; a no-op step returns g.
func (g *Graph) SlideWindow(newEdges []Edge, expireBefore int) (*Graph, Delta) {
	return g.advance(newEdges, g.liveBefore(expireBefore))
}

// liveBefore lists the live dense positions < n, ascending (n clamped to
// the dense edge count).
func (g *Graph) liveBefore(n int) []int {
	if ne := g.NumEdges(); n > ne {
		n = ne
	}
	if n <= 0 {
		return nil
	}
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if g.EdgeAlive(i) {
			idx = append(idx, i)
		}
	}
	return idx
}

// resolveRetractions maps retracted edge values to the dense positions to
// tombstone: per value, the oldest live occurrences first, up to the
// batch's multiplicity, skipping surplus already-dead occurrences. A value
// with no occurrence at all (live or dead) is an error.
//
// The scan visits every dense edge to find a batch that is typically a
// fraction of a percent of them, so each edge is first screened by one
// multiply-shift hash into a bit filter sized from the batch (the power of
// two holding at least 32 bits per retracted value: 32 KiB for a 5k-edge
// batch, cache-resident, at most one false hit in 32) and only a hit
// consults the map. The scan is cut into contiguous ranges — whole blocks on
// the block tier — one per GOMAXPROCS worker, each collecting the positions
// whose value is in the batch; the multiplicities are then spent over those
// hits in position order, so the result is the one a single pass gives.
func (g *Graph) resolveRetractions(retract []Edge) ([]int, error) {
	if len(retract) == 0 {
		return nil, nil
	}
	want := make(map[Edge]int, len(retract))
	for _, e := range retract {
		want[e]++
	}
	shift := uint(64 - bits.Len(uint(len(want)*32-1)))
	if shift > 64-6 {
		shift = 64 - 6 // at least one word
	}
	filter := make([]uint64, 1<<(64-shift-6))
	for e := range want {
		h := retractHash(e) >> shift
		filter[h>>6] |= 1 << (h & 63)
	}
	type hit struct {
		i int
		e Edge
	}
	bs := g.blocks
	if g.denseOnce.built() {
		bs = nil
	}
	units := g.NumEdges()
	if bs != nil {
		units = bs.NumBlocks()
	}
	workers := par.DefaultParallelism()
	hits := make([][]hit, workers)
	collect := func(r, start int, edges []Edge) {
		for i, e := range edges {
			if h := retractHash(e) >> shift; filter[h>>6]>>(h&63)&1 == 0 {
				continue
			}
			if _, ok := want[e]; ok {
				hits[r] = append(hits[r], hit{start + i, e})
			}
		}
	}
	if err := par.Ranges(workers, units, func(r, lo, hi int) {
		if bs == nil {
			collect(r, lo, g.edges[lo:hi])
			return
		}
		sc := getScratch()
		defer blockScratchPool.Put(sc)
		for b := lo; b < hi; b++ {
			es, err := bs.decode(b, sc)
			if err != nil {
				panic("graph: block decode failed: " + err.Error())
			}
			start, _ := bs.BlockRange(b)
			collect(r, start, es)
		}
	}); err != nil {
		return nil, err
	}
	idx := make([]int, 0, len(retract))
	seen := make(map[Edge]bool, len(want))
	for _, hs := range hits {
		for _, h := range hs {
			seen[h.e] = true
			if n := want[h.e]; n > 0 && g.EdgeAlive(h.i) {
				idx = append(idx, h.i)
				want[h.e] = n - 1
			}
		}
	}
	for e, n := range want {
		if n > 0 && !seen[e] {
			return nil, fmt.Errorf("graph: cannot retract edge %d -> %d: not in graph", e.Src, e.Dst)
		}
	}
	return idx, nil
}

// retractHash mixes an edge into 64 bits whose high bits index the
// retraction filter: two odd multipliers (the 64-bit golden ratio and its
// xorshift companion) keep src and dst from cancelling.
func retractHash(e Edge) uint64 {
	return uint64(e.Src)*0x9E3779B97F4A7C15 + uint64(e.Dst)*0xD6E8FEB86659FD93
}
