package graph

import (
	"fmt"
	"math/bits"
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
	ng, d := g.advance(nil, nil, removeIdx)
	return ng, d, nil
}

// ShrinkBefore returns a new generation with every live edge at a dense
// position < n tombstoned — the expiry half of sliding-window serving
// (positions are append order, so "before n" is "older than the n-th
// append"). n is clamped to the dense edge count. A step that nets zero
// retractions returns g itself.
func (g *Graph) ShrinkBefore(n int) (*Graph, Delta) {
	ng, d := g.advance(nil, nil, g.liveBefore(n))
	return ng, d
}

// SlideWindow advances the graph one sliding-window step: append newEdges
// (with optional per-edge weights, as in GrowWeighted) and expire every
// live edge at a dense position < expireBefore, in ONE generation step —
// a single new version, a single Delta, so the serving layer's delta
// chain records one boundary instead of an append generation followed by
// an expire generation. expireBefore positions refer to the parent's
// dense list (it is clamped to the parent's edge count; the appended
// suffix is never expired by the same step).
func (g *Graph) SlideWindow(newEdges []Edge, weights []float64, expireBefore int) (*Graph, Delta, error) {
	if weights != nil && len(weights) != len(newEdges) {
		return nil, Delta{}, fmt.Errorf("graph: %d weights for %d appended edges", len(weights), len(newEdges))
	}
	ng, d := g.advance(newEdges, weights, g.liveBefore(expireBefore))
	return ng, d, nil
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
// consults the map.
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
	idx := make([]int, 0, len(retract))
	seen := make(map[Edge]bool, len(want))
	g.mustEdgeBlocks(func(start int, edges []Edge, _ []float64) {
		for i, e := range edges {
			if h := retractHash(e) >> shift; filter[h>>6]>>(h&63)&1 == 0 {
				continue
			}
			n, ok := want[e]
			if !ok {
				continue
			}
			seen[e] = true
			if n > 0 && g.EdgeAlive(start+i) {
				idx = append(idx, start+i)
				want[e] = n - 1
			}
		}
	})
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
