package algorithms

import (
	"context"
	"fmt"
	"sync"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// cutVertexReductionUnits is the abstract compute cost of merging the
// replicated per-vertex neighbour-set state of one cut vertex at its
// master (hash-set allocation, union and deduplication), in the same units
// as one edge-scan operation. Calibrated so that, as in the paper's
// measurements, the per-cut-vertex reduction overhead dominates Triangle
// Count's partitioning sensitivity.
const cutVertexReductionUnits = 200

// hashSetOpUnits is the abstract cost of one hash-set operation relative
// to one sequential edge-scan unit. GraphX's TriangleCount intersects
// boxed JVM hash sets, an order of magnitude costlier per element than the
// cache-friendly sequential scans of PageRank-style triplet passes; this
// factor keeps the simulated cost model faithful to that ratio and makes
// Triangle Count compute-bound, as the paper observes ("much more
// computation per node … and much less communication", §4).
const hashSetOpUnits = 16

// TriangleCount counts triangles per vertex on the partitioned graph,
// mirroring GraphX's implementation: every vertex's full (undirected,
// deduplicated) neighbor set is shipped to each of its mirrors, each
// partition intersects the endpoint sets of its canonical edges, and the
// per-vertex partial counts are reduced back to the masters.
//
// The per-vertex state is the neighbor set itself, so — unlike
// PageRank/CC/SSSP whose state is a handful of bytes — the broadcast
// volume and the reduction work scale with the number of replicated
// vertices. This is exactly why the paper finds Triangle Count correlated
// with the Cut metric rather than CommCost (§4, Figure 5).
//
// Two things are kept apart here. The returned RunStats are the model of
// that GraphX job: ComputePerPart charges hashSetOpUnits for every element
// of both endpoint sets of every canonical edge, ApplyPerShard charges
// cutVertexReductionUnits per cut vertex, whatever this process spends.
// The kernel that produces the counts does far less: nothing that depends
// only on the graph or the topology is recomputed per call (the canonical
// edges come from graph.CanonicalEdges, their per-partition grouping from
// pregel's TrianglePlan, neighbor sets straight from the undirected CSR),
// and each partition walks its canonical edges hub by hub — it marks the
// higher-degree endpoint's set once in a vertex bitset, probes it with the
// lower-degree endpoint of every edge in the run, and clears it by
// re-walking the hub's list — so the work follows Σ min(deg u, deg v)
// rather than Σ (deg u + deg v). Per call it allocates the result and the
// per-partition count slices, nothing sized by the edge list.
//
// It returns the triangle count through each dense vertex index (each
// triangle contributes 1 to each corner) and single-superstep run stats.
func TriangleCount(ctx context.Context, pg *pregel.PartitionedGraph) ([]int64, *pregel.RunStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("algorithms: TriangleCount: %w", err)
	}
	g := pg.G
	nv := g.NumVertices()
	numParts := pg.NumParts
	plan := pg.TrianglePlan()

	ss := pregel.SuperstepStats{
		Superstep:      1,
		ActiveVertices: int64(nv),
		ComputePerPart: make([]float64, numParts),
		ApplyPerShard:  make([]float64, 1),
	}

	// Broadcast phase accounting: each mirror receives its vertex's full
	// neighbor set (16 bytes header + 4 bytes per neighbor).
	reps := pg.ReplicaCounts()
	for v := int32(0); v < int32(nv); v++ {
		m := int64(reps[v])
		ss.BroadcastMsgs += m
		ss.BroadcastBytes += m * (16 + 4*int64(len(g.UndirectedNeighbors(v))))
	}

	// Compute phase: per-partition canonical-edge intersections.
	// ForEachPartition runs concurrently; each closure writes only its own
	// partition's slots.
	partCounts := make([][]int64, numParts)
	if err := pg.ForEachPartition(func(p int) {
		part := pg.Parts[p]
		counts := make([]int64, part.NumLocalVertices())
		marks := takeMarks(nv)
		// setOps is Σ (|N(u)| + |N(v)|) over the partition's canonical edges:
		// the model charges GraphX's two boxed hash sets per edge whatever
		// this kernel actually touches.
		var setOps int64
		runs := plan[p]
		for hubL := range counts {
			leaves := runs.Leaf[runs.Off[hubL]:runs.Off[hubL+1]]
			if len(leaves) == 0 {
				continue
			}
			hub := g.UndirectedNeighbors(part.LocalVerts[hubL])
			marks.set(hub)
			for _, leafL := range leaves {
				leaf := g.UndirectedNeighbors(part.LocalVerts[leafL])
				common := int64(marks.count(leaf))
				counts[hubL] += common
				counts[leafL] += common
				setOps += int64(len(hub) + len(leaf))
			}
			marks.clear(hub)
		}
		markPool.Put(marks) // all zero again: every set was cleared
		partCounts[p] = counts
		ss.ComputePerPart[p] = hashSetOpUnits * float64(setOps)
	}); err != nil {
		return nil, nil, err
	}
	for _, runs := range plan {
		ss.EdgesScanned += int64(len(runs.Leaf))
	}

	// Reduce phase: one partial count per (partition, vertex with nonzero
	// count) back to the master, then a per-vertex reduction.
	total := make([]int64, nv)
	for p := 0; p < numParts; p++ {
		part := pg.Parts[p]
		for l, c := range partCounts[p] {
			if c == 0 {
				continue
			}
			gidx := part.LocalVerts[l]
			total[gidx] += c
			ss.ReduceMsgs++
			ss.ReduceBytes += 12
		}
	}
	// Per-vertex reduction/apply work at the master. Every vertex that is
	// replicated across more than one partition requires an additional
	// reduction to merge its partial per-vertex state — the overhead the
	// paper identifies as the dominant per-vertex cost of Triangle Count
	// in GraphX and all Pregel-like systems (§4, Figure 5). Each such
	// merge allocates and deduplicates set-sized state, which costs far
	// more than the fixed-size aggregation of PageRank-like algorithms;
	// cutVertexReductionUnits captures that fixed overhead per cut vertex.
	var applyUnits float64
	for _, m := range reps {
		applyUnits += float64(m)
		if m > 1 {
			applyUnits += cutVertexReductionUnits
		}
	}
	ss.ApplyPerShard[0] = applyUnits
	ss.MsgsEmitted = ss.ReduceMsgs

	// Each triangle corner was credited once per incident canonical edge
	// inside the triangle (two of the three edges touch each corner).
	for v := range total {
		total[v] /= 2
	}

	stats := &pregel.RunStats{Supersteps: []pregel.SuperstepStats{ss}, Converged: true}
	return total, stats, nil
}

// markSet is one worker's vertex-presence scratch: a bitset over global
// dense vertex indices holding one hub's neighbor set at a time. It is all
// zero whenever it is not inside a set/clear pair, so it can be pooled.
type markSet struct{ words []uint64 }

func (m *markSet) set(vs []int32) {
	w := m.words
	for _, v := range vs {
		w[v>>6] |= 1 << (uint32(v) & 63)
	}
}

// clear undoes set(vs) by re-walking the list: a hub's set touches far
// fewer words than the graph has.
func (m *markSet) clear(vs []int32) {
	w := m.words
	for _, v := range vs {
		w[v>>6] = 0
	}
}

// count returns how many of vs are marked.
func (m *markSet) count(vs []int32) int {
	w := m.words
	n := 0
	for _, v := range vs {
		n += int(w[v>>6] >> (uint32(v) & 63) & 1)
	}
	return n
}

// markPool parks markSets between partitions and between calls, so a
// request allocates no vertex-sized scratch once the pool is warm.
var markPool sync.Pool

// takeMarks returns an all-zero markSet covering nv vertices.
func takeMarks(nv int) *markSet {
	words := (nv + 63) / 64
	if m, ok := markPool.Get().(*markSet); ok && len(m.words) >= words {
		return m
	}
	return &markSet{words: make([]uint64, words)}
}

// TriangleCountSeq is the sequential oracle, returning per-vertex triangle
// counts aligned with g.Vertices().
func TriangleCountSeq(g *graph.Graph) []int64 {
	return g.TrianglesPerVertex()
}

// TotalTriangles sums per-vertex counts into the whole-graph triangle
// count (each triangle is counted at three corners).
func TotalTriangles(perVertex []int64) int64 {
	var s int64
	for _, c := range perVertex {
		s += c
	}
	return s / 3
}

var trianglesAlg = &Entry{
	Name:    "triangles",
	Profile: ProfileTR,
	Check:   noParams,
	Run: func(ctx context.Context, pg *pregel.PartitionedGraph, _ Params) (any, *pregel.RunStats, error) {
		counts, stats, err := TriangleCount(ctx, pg)
		return counts, stats, err
	},
	Summarize: func(_ *graph.Graph, values any, _ *pregel.RunStats) Summary {
		n := TotalTriangles(values.([]int64))
		return Summary{Triangles: n, Text: fmt.Sprintf("triangles: %d", n)}
	},
	Seq: func(g *graph.Graph, _ Params) any { return TriangleCountSeq(g) },
}
