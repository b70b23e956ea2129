package pregel

import (
	"math/bits"

	"cutfit/internal/graph"
)

// computePart scans one partition's triplets for one superstep and delivers
// messages through em — the compute phase of the BSP loop, factored out of
// Run so the distributed worker (ShardCompute) executes byte-for-byte the
// same scan. Both callers therefore visit candidate edges in ascending edge
// order, which is what keeps float64 message combines bit-identical across
// the local and distributed paths.
//
// fw is the partition's frontier bitset (bit l set ⇔ local vertex l's
// master changed last round) and act its popcount; both are ignored for
// AllEdges programs. mask is the sparse path's candidate-edge bitmap, one
// bit per edge, all-zero on entry — the caller's scratch, fitted to the
// partition (engineScratch.fit, NewShardCompute) — and all-zero again on
// return (the scan clears words as it consumes them).
func computePart[V, M any](prog *Program[V, M], part *Partition, verts []graph.VertexID, pv []V, fw []uint64, act int, mask []uint64, em *partEmitter[M]) (nScan, nVisited int64, cost float64) {
	dir := prog.ActiveDirection
	lv := part.LocalVerts
	edges := part.edges
	edgeCost := prog.EdgeCost
	t := Triplet[V]{verts: verts}

	if dir == AllEdges {
		// Always-active programs (PageRank): unconditional scan, no
		// frontier, no per-edge activity test — today's fast path.
		for i := range edges {
			e := edges[i]
			nScan++
			t.SrcIdx = lv[e.src]
			t.DstIdx = lv[e.dst]
			t.SrcVal = pv[e.src]
			t.DstVal = pv[e.dst]
			em.srcLocal = e.src
			em.dstLocal = e.dst
			prog.SendMsg(&t, em)
			if edgeCost != nil {
				cost += edgeCost(&t)
			}
		}
		return nScan, int64(len(edges)), unitCost(edgeCost, nScan, cost)
	}

	sparse := prog.ScanPolicy == ScanSparse ||
		(prog.ScanPolicy == ScanAuto && act*sparseDenominator < len(lv))
	if !sparse {
		// Dense scan: every edge, activity by two frontier bit tests.
		for i := range edges {
			e := edges[i]
			srcA := fw[e.src>>6]>>(uint32(e.src)&63)&1 != 0
			dstA := fw[e.dst>>6]>>(uint32(e.dst)&63)&1 != 0
			var scan bool
			switch dir {
			case Out:
				scan = srcA
			case In:
				scan = dstA
			case Either:
				scan = srcA || dstA
			case Both:
				scan = srcA && dstA
			}
			if !scan {
				continue
			}
			nScan++
			t.SrcIdx = lv[e.src]
			t.DstIdx = lv[e.dst]
			t.SrcVal = pv[e.src]
			t.DstVal = pv[e.dst]
			em.srcLocal = e.src
			em.dstLocal = e.dst
			prog.SendMsg(&t, em)
			if edgeCost != nil {
				cost += edgeCost(&t)
			}
		}
		return nScan, int64(len(edges)), unitCost(edgeCost, nScan, cost)
	}

	// Sparse scan. Gather: walk the frontier index of each live vertex
	// (zero frontier words skip 64 vertices at a time) and set the
	// candidate edges' bits in the edge bitmap — Out gathers by source, In
	// by destination, Either by both (the bitmap dedups shared candidates),
	// Both by source with a destination re-check at visit time. Scan:
	// consume bitmap words in ascending order, clearing as we go, so
	// candidates are visited in exactly the dense scan's edge order — float
	// message merges combine in the same sequence and results stay
	// bit-identical.
	part.ensureFrontierIndex()
	gather := func(off, pos []int32) {
		for wi, w := range fw {
			if w == 0 {
				continue
			}
			base := int32(wi << 6)
			for w != 0 {
				l := base + int32(bits.TrailingZeros64(w))
				w &= w - 1
				for _, j := range pos[off[l]:off[l+1]] {
					mask[j>>6] |= 1 << (uint32(j) & 63)
				}
			}
		}
	}
	switch dir {
	case Out, Both:
		gather(part.srcOff, part.srcPos)
	case In:
		gather(part.dstOff, part.dstPos)
	case Either:
		gather(part.srcOff, part.srcPos)
		gather(part.dstOff, part.dstPos)
	}
	for wi := range mask {
		w := mask[wi]
		if w == 0 {
			continue
		}
		mask[wi] = 0
		nVisited += int64(bits.OnesCount64(w))
		base := wi << 6
		for w != 0 {
			j := base + bits.TrailingZeros64(w)
			w &= w - 1
			e := edges[j]
			if dir == Both && fw[e.dst>>6]>>(uint32(e.dst)&63)&1 == 0 {
				continue
			}
			nScan++
			t.SrcIdx = lv[e.src]
			t.DstIdx = lv[e.dst]
			t.SrcVal = pv[e.src]
			t.DstVal = pv[e.dst]
			em.srcLocal = e.src
			em.dstLocal = e.dst
			prog.SendMsg(&t, em)
			if edgeCost != nil {
				cost += edgeCost(&t)
			}
		}
	}
	return nScan, nVisited, unitCost(edgeCost, nScan, cost)
}

// unitCost is the scan's summed edge cost: the accumulated sum when the
// program prices edges itself, else one unit per scanned edge — exactly what
// adding 1.0 per edge would have produced.
func unitCost[V any](edgeCost func(*Triplet[V]) float64, nScan int64, sum float64) float64 {
	if edgeCost == nil {
		return float64(nScan)
	}
	return sum
}
