package pregel

import (
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/par"
	"cutfit/internal/partition"
)

// RawTables is the flat, persistable form of a PartitionedGraph: the dense
// arrays the build produces, with nothing derived and nothing pointer-shaped.
// The snapshot codec (internal/snap) writes these tables verbatim, so a
// restore is one big read plus FromRawTables' validation pass — no strategy
// pass, no sort, no dedup.
type RawTables struct {
	// NumParts is the partition count.
	NumParts int
	// Assign is the per-global-edge partition assignment (AssignOrder).
	Assign []partition.PID
	// PartStart delimits each partition's span in the scattered edge
	// arrays: partition p's edges are indices [PartStart[p], PartStart[p+1]).
	// len == NumParts+1, PartStart[NumParts] == len(EdgeSrc).
	PartStart []int64
	// EdgeSrc/EdgeDst are the partition-local endpoint indices of every
	// scattered edge, aligned with each other.
	EdgeSrc, EdgeDst []int32
	// LocalVertsOffsets delimits each partition's mirror table in
	// LocalVerts; len == NumParts+1.
	LocalVertsOffsets []int64
	// LocalVerts is the concatenation of every partition's sorted mirror
	// table (global dense vertex indices). Replica counts are a pure function
	// of these tables, so they are not part of the persisted form: readers
	// count them off the restored tables, as on any other topology.
	LocalVerts []int32
}

// RawTables flattens the partitioned topology into its persistable form.
// All slices are freshly allocated; mutating them never touches pg.
func (pg *PartitionedGraph) RawTables() RawTables {
	rt := RawTables{
		NumParts:          pg.NumParts,
		Assign:            append([]partition.PID(nil), pg.assign...),
		PartStart:         make([]int64, pg.NumParts+1),
		LocalVertsOffsets: make([]int64, pg.NumParts+1),
	}
	var ne, nlv int64
	for p, part := range pg.Parts {
		ne += int64(len(part.edges))
		nlv += int64(len(part.LocalVerts))
		rt.PartStart[p+1] = ne
		rt.LocalVertsOffsets[p+1] = nlv
	}
	rt.EdgeSrc = make([]int32, ne)
	rt.EdgeDst = make([]int32, ne)
	rt.LocalVerts = make([]int32, nlv)
	for p, part := range pg.Parts {
		base := rt.PartStart[p]
		for j, e := range part.edges {
			rt.EdgeSrc[base+int64(j)] = e.src
			rt.EdgeDst[base+int64(j)] = e.dst
		}
		copy(rt.LocalVerts[rt.LocalVertsOffsets[p]:], part.LocalVerts)
	}
	return rt
}

// FromRawTables assembles a PartitionedGraph for g from its persisted
// tables, validating every structural invariant first: PID ranges and
// per-partition counts against PartStart, offset monotonicity of both
// CSR-shaped tables, sorted deduplicated mirror tables with in-range global
// indices, and in-range local edge endpoints. Corrupt or forged tables
// therefore fail loudly instead of producing a wrong-but-plausible topology.
// The tables are retained (not copied); callers must hand over ownership.
func FromRawTables(g *graph.Graph, rt RawTables, opts BuildOptions) (*PartitionedGraph, error) {
	numParts := rt.NumParts
	if numParts <= 0 {
		return nil, fmt.Errorf("pregel: restored numParts must be positive, got %d", numParts)
	}
	ne := g.NumEdges()
	if len(rt.Assign) != ne {
		return nil, fmt.Errorf("pregel: restored assignment has %d entries for %d edges", len(rt.Assign), ne)
	}
	// The scattered edge tables hold live edges only; the assignment stays
	// dense-aligned with tombstoned slots included.
	numDead := g.NumDeadEdges()
	live := g.NumLiveEdges()
	if len(rt.EdgeSrc) != live || len(rt.EdgeDst) != live {
		return nil, fmt.Errorf("pregel: restored edge tables have %d/%d entries for %d live edges", len(rt.EdgeSrc), len(rt.EdgeDst), live)
	}
	if err := checkOffsets("PartStart", rt.PartStart, numParts, int64(live)); err != nil {
		return nil, err
	}
	if err := checkOffsets("LocalVertsOffsets", rt.LocalVertsOffsets, numParts, int64(len(rt.LocalVerts))); err != nil {
		return nil, err
	}
	// Per-partition live edge counts must match the assignment exactly (this
	// also validates every PID's range, including tombstoned slots).
	counts := make([]int64, numParts)
	for i, p := range rt.Assign {
		// One unsigned compare covers both negative and too-large PIDs.
		if uint32(p) >= uint32(numParts) {
			return nil, fmt.Errorf("pregel: restored edge %d assigned to out-of-range partition %d", i, p)
		}
		if numDead != 0 && !g.EdgeAlive(i) {
			continue
		}
		counts[p]++
	}
	for p := 0; p < numParts; p++ {
		if counts[p] != rt.PartStart[p+1]-rt.PartStart[p] {
			return nil, fmt.Errorf("pregel: partition %d holds %d edges but assignment counts %d", p, rt.PartStart[p+1]-rt.PartStart[p], counts[p])
		}
	}
	nv := g.NumVertices()
	// Mirror tables: sorted, deduplicated, in range. The localized edge
	// range check below is fused with the edge-buffer build — every element
	// is touched exactly once.
	for p := 0; p < numParts; p++ {
		lv := rt.LocalVerts[rt.LocalVertsOffsets[p]:rt.LocalVertsOffsets[p+1]]
		if len(lv) == 0 {
			continue
		}
		// Strict ascent plus in-range endpoints proves every slot in range.
		if lv[0] < 0 || int(lv[len(lv)-1]) >= nv {
			return nil, fmt.Errorf("pregel: partition %d mirror table spans [%d, %d], graph has %d vertices", p, lv[0], lv[len(lv)-1], nv)
		}
		for j := 1; j < len(lv); j++ {
			if lv[j-1] >= lv[j] {
				return nil, fmt.Errorf("pregel: partition %d mirror table not strictly ascending at slot %d", p, j)
			}
		}
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = par.DefaultParallelism()
	}
	pg := &PartitionedGraph{
		G:            g,
		NumParts:     numParts,
		Parts:        make([]*Partition, numParts),
		assign:       rt.Assign,
		Parallelism:  workers,
		ReuseBuffers: opts.ReuseBuffers,
		scratch:      &scratchPool{},
	}
	pg.assignShare, _ = graph.SliceShare(rt.Assign, nil)
	// Assemble the edge buffer, validating each localized endpoint against
	// its partition's mirror-table size in the same pass.
	edgeBuf := make([]localEdge, live)
	for p := 0; p < numParts; p++ {
		lo, hi := rt.LocalVertsOffsets[p], rt.LocalVertsOffsets[p+1]
		n := int32(hi - lo)
		for i := rt.PartStart[p]; i < rt.PartStart[p+1]; i++ {
			s, d := rt.EdgeSrc[i], rt.EdgeDst[i]
			if uint32(s) >= uint32(n) || uint32(d) >= uint32(n) {
				return nil, fmt.Errorf("pregel: partition %d edge %d references local vertex outside its %d-slot mirror table", p, i-rt.PartStart[p], n)
			}
			edgeBuf[i] = localEdge{src: s, dst: d}
		}
		pg.Parts[p] = &Partition{
			LocalVerts: rt.LocalVerts[lo:hi:hi],
			edges:      edgeBuf[rt.PartStart[p]:rt.PartStart[p+1]:rt.PartStart[p+1]],
		}
	}
	// The frontier index and the replica counts are derived rather than
	// persisted: pure functions of the (validated) tables, the index built by
	// its first reader, the counts by every reader that wants them.
	return pg, nil
}

// checkOffsets validates a CSR offset table: n+1 entries, starting at 0,
// non-decreasing, ending at total.
func checkOffsets(name string, offsets []int64, n int, total int64) error {
	if len(offsets) != n+1 {
		return fmt.Errorf("pregel: restored %s has %d entries, want %d", name, len(offsets), n+1)
	}
	if offsets[0] != 0 {
		return fmt.Errorf("pregel: restored %s does not start at 0", name)
	}
	for i := 0; i < n; i++ {
		if offsets[i+1] < offsets[i] {
			return fmt.Errorf("pregel: restored %s decreases at entry %d", name, i+1)
		}
	}
	if offsets[n] != total {
		return fmt.Errorf("pregel: restored %s ends at %d, want %d", name, offsets[n], total)
	}
	return nil
}
