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
	// table (global dense vertex indices).
	LocalVerts []int32
	// RoutingOffsets/RoutingParts/RoutingLocals form the mirror routing CSR
	// over global dense vertex indices: mirrors of vertex v are the
	// (RoutingParts[j], RoutingLocals[j]) pairs for j in
	// [RoutingOffsets[v], RoutingOffsets[v+1]). The routing CSR is a pure
	// function of the mirror tables; FromRawTables accepts a nil
	// RoutingOffsets and derives it (the snapshot codec never persists it).
	RoutingOffsets []int64
	RoutingParts   []int32
	RoutingLocals  []int32
}

// RawTables flattens the partitioned topology into its persistable form.
// All slices are freshly allocated; mutating them never touches pg.
func (pg *PartitionedGraph) RawTables() RawTables {
	rt := RawTables{
		NumParts:          pg.NumParts,
		Assign:            append([]partition.PID(nil), pg.assign...),
		PartStart:         make([]int64, pg.NumParts+1),
		LocalVertsOffsets: make([]int64, pg.NumParts+1),
		RoutingOffsets:    append([]int64(nil), pg.routingOffsets...),
		RoutingParts:      make([]int32, len(pg.routingRefs)),
		RoutingLocals:     make([]int32, len(pg.routingRefs)),
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
	for j, ref := range pg.routingRefs {
		rt.RoutingParts[j] = ref.Part
		rt.RoutingLocals[j] = ref.Local
	}
	return rt
}

// FromRawTables assembles a PartitionedGraph for g from its persisted
// tables, validating every structural invariant first: PID ranges and
// per-partition counts against PartStart, offset monotonicity of all three
// CSR-shaped tables, sorted deduplicated mirror tables with in-range global
// indices, in-range local edge endpoints, and a routing table that is an
// exact bijection onto the mirror slots (each ref resolves to a LocalVerts
// slot holding exactly its vertex, in ascending partition order). Corrupt
// or forged tables therefore fail loudly instead of producing a
// wrong-but-plausible topology. The tables are retained (not copied);
// callers must hand over ownership.
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
	// Routing CSR pre-checks (only when one was supplied: a nil
	// RoutingOffsets means "derive from the mirror tables" below). The
	// per-ref checks are fused with the routing-table build.
	if rt.RoutingOffsets != nil {
		if err := checkOffsets("RoutingOffsets", rt.RoutingOffsets, nv, int64(len(rt.RoutingParts))); err != nil {
			return nil, err
		}
		if len(rt.RoutingParts) != len(rt.RoutingLocals) {
			return nil, fmt.Errorf("pregel: routing tables disagree: %d parts, %d locals", len(rt.RoutingParts), len(rt.RoutingLocals))
		}
		if int64(len(rt.RoutingParts)) != int64(len(rt.LocalVerts)) {
			return nil, fmt.Errorf("pregel: %d routing refs for %d mirror slots", len(rt.RoutingParts), len(rt.LocalVerts))
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
	// The frontier index, like the routing CSR below, is derived rather
	// than persisted: it is a pure function of the (validated) edge tables,
	// built lazily by the first sparse scan that needs it.
	// No routing supplied: derive it from the (already validated) mirror
	// tables — cheaper than validating a persisted copy, and correct by
	// construction.
	if rt.RoutingOffsets == nil {
		pg.buildRouting()
		return pg, nil
	}
	// Assemble the supplied routing table, proving in the same pass that it
	// is an exact bijection onto the mirror slots: within each vertex's
	// span the partitions ascend strictly, and every ref resolves to a
	// LocalVerts slot holding exactly that vertex (with equal totals, that
	// forces a bijection).
	refs := make([]MirrorRef, len(rt.RoutingParts))
	for v := 0; v < nv; v++ {
		prev := int32(-1)
		for j := rt.RoutingOffsets[v]; j < rt.RoutingOffsets[v+1]; j++ {
			p, l := rt.RoutingParts[j], rt.RoutingLocals[j]
			if p <= prev {
				return nil, fmt.Errorf("pregel: vertex %d routing refs not strictly ascending by partition", v)
			}
			prev = p
			if int(p) >= numParts {
				return nil, fmt.Errorf("pregel: vertex %d routed to out-of-range partition %d", v, p)
			}
			lo, hi := rt.LocalVertsOffsets[p], rt.LocalVertsOffsets[p+1]
			if l < 0 || int64(l) >= hi-lo {
				return nil, fmt.Errorf("pregel: vertex %d routed to out-of-range mirror slot %d of partition %d", v, l, p)
			}
			if rt.LocalVerts[lo+int64(l)] != int32(v) {
				return nil, fmt.Errorf("pregel: vertex %d routing ref resolves to mirror of vertex %d", v, rt.LocalVerts[lo+int64(l)])
			}
			refs[j] = MirrorRef{Part: p, Local: l}
		}
	}
	pg.routingOffsets = rt.RoutingOffsets
	pg.routingRefs = refs
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
