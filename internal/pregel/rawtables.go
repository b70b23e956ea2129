package pregel

import (
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// PartTables is the flat, columnar form of a list of partitions: the dense
// arrays the build produces, with nothing derived and nothing
// pointer-shaped. A topology snapshot (RawTables) carries them for every
// partition and a distributed worker's shard for the partitions it owns;
// internal/snap writes both verbatim, and Partitions is the one way back.
type PartTables struct {
	// PartStart delimits each partition's span in the scattered edge
	// array: the i-th partition's edges are indices
	// [PartStart[i], PartStart[i+1]), and PartStart ends at len(Edges).
	PartStart []int64
	// Edges holds the partition-local endpoint indices of every scattered
	// edge; Partitions keeps it as the partitions' edge buffer.
	Edges []LocalEdge
	// LocalVertsOffsets delimits each partition's mirror table in
	// LocalVerts, as PartStart does the edges.
	LocalVertsOffsets []int64
	// LocalVerts is the concatenation of every partition's sorted mirror
	// table (global dense vertex indices). Replica counts are a pure function
	// of these tables, so they are not part of the persisted form: readers
	// count them off the restored tables, as on any other topology.
	LocalVerts []int32
}

// RawTables is the flat, persistable form of a whole PartitionedGraph: the
// tables of all its partitions plus the per-edge assignment. A restore is
// one big read plus FromRawTables' validation pass — no strategy pass, no
// sort, no dedup.
type RawTables struct {
	// NumParts is the partition count.
	NumParts int
	// Assign is the per-global-edge partition assignment (AssignOrder).
	Assign []partition.PID
	PartTables
}

// Tables flattens the partitions named by idx, in that order, into their
// columnar form: each partition's live view (Partition.Live), so a
// tombstoned topology flattens to the tables a cold build of its
// generation does. All slices are freshly allocated; mutating them never
// touches pg.
func (pg *PartitionedGraph) Tables(idx []int) PartTables {
	pt := PartTables{
		PartStart:         make([]int64, len(idx)+1),
		LocalVertsOffsets: make([]int64, len(idx)+1),
	}
	var ne, nlv int64
	for i, p := range idx {
		part := pg.Parts[p]
		ne += int64(part.NumEdges())
		nlv += int64(part.NumLocalVertices())
		pt.PartStart[i+1] = ne
		pt.LocalVertsOffsets[i+1] = nlv
	}
	pt.Edges = make([]LocalEdge, ne)
	pt.LocalVerts = make([]int32, nlv)
	for i, p := range idx {
		lv, edges := pg.Parts[p].Live()
		copy(pt.Edges[pt.PartStart[i]:], edges)
		copy(pt.LocalVerts[pt.LocalVertsOffsets[i]:], lv)
	}
	return pt
}

// RawTables flattens the partitioned topology into its persistable form.
// All slices are freshly allocated; mutating them never touches pg.
func (pg *PartitionedGraph) RawTables() RawTables {
	all := make([]int, pg.NumParts)
	for p := range all {
		all[p] = p
	}
	return RawTables{
		NumParts:   pg.NumParts,
		Assign:     append([]partition.PID(nil), pg.assign...),
		PartTables: pg.Tables(all),
	}
}

// Partitions validates the tables of n partitions over a graph of nv
// vertices and assembles them: both offset tables hold n+1 entries from 0,
// never decrease and end at their column's length; every mirror table
// ascends strictly within [0, nv); every edge endpoint indexes into its
// partition's mirror table. Corrupt or forged tables therefore fail loudly
// instead of producing a wrong-but-plausible topology. The mirror tables
// and the edge array are retained (not copied); callers must hand over
// ownership.
func (pt PartTables) Partitions(n, nv int) ([]*Partition, error) {
	if err := checkOffsets("PartStart", pt.PartStart, n, int64(len(pt.Edges))); err != nil {
		return nil, err
	}
	if err := checkOffsets("LocalVertsOffsets", pt.LocalVertsOffsets, n, int64(len(pt.LocalVerts))); err != nil {
		return nil, err
	}
	parts := make([]*Partition, n)
	for p := range parts {
		lo, hi := pt.LocalVertsOffsets[p], pt.LocalVertsOffsets[p+1]
		lv := pt.LocalVerts[lo:hi:hi]
		// Strict ascent plus in-range endpoints proves every slot in range.
		if len(lv) > 0 && (lv[0] < 0 || int(lv[len(lv)-1]) >= nv) {
			return nil, fmt.Errorf("pregel: partition %d mirror table spans [%d, %d], graph has %d vertices", p, lv[0], lv[len(lv)-1], nv)
		}
		for j := 1; j < len(lv); j++ {
			if lv[j-1] >= lv[j] {
				return nil, fmt.Errorf("pregel: partition %d mirror table not strictly ascending at slot %d", p, j)
			}
		}
		// Every localized endpoint must index the mirror table.
		m := uint32(len(lv))
		es, ee := pt.PartStart[p], pt.PartStart[p+1]
		edges := pt.Edges[es:ee:ee]
		for j, e := range edges {
			if uint32(e.Src) >= m || uint32(e.Dst) >= m {
				return nil, fmt.Errorf("pregel: partition %d edge %d references local vertex outside its %d-slot mirror table", p, j, m)
			}
		}
		parts[p] = &Partition{LocalVerts: lv, edgeSpan: &edgeSpan{edges: edges}}
	}
	return parts, nil
}

// FromRawTables assembles a topology from its persisted tables over a
// graph of nv vertices: Partitions' validation, then each partition's edge
// span held to counts, the live edges per partition that the caller
// counted while range-checking rt.Assign. G is left nil for the caller to
// set before the topology is shared. The tables are retained (not copied);
// callers must hand over ownership.
func FromRawTables(nv int, rt RawTables, counts []int64, opts BuildOptions) (*PartitionedGraph, error) {
	numParts := rt.NumParts
	if numParts <= 0 || len(counts) != numParts {
		return nil, fmt.Errorf("pregel: restored topology has %d partitions and %d edge counts", numParts, len(counts))
	}
	parts, err := rt.Partitions(numParts, nv)
	if err != nil {
		return nil, err
	}
	// The scattered edge tables hold live edges only; the assignment stays
	// dense-aligned with tombstoned slots included. Matching counts per
	// partition also pin the edge tables' length to the live edge count.
	for p, part := range parts {
		if int64(len(part.edges)) != counts[p] {
			return nil, fmt.Errorf("pregel: partition %d holds %d edges but assignment counts %d", p, len(part.edges), counts[p])
		}
	}
	pg := &PartitionedGraph{
		NumParts:     numParts,
		Parts:        parts,
		assign:       rt.Assign,
		ReuseBuffers: opts.ReuseBuffers,
		scratch:      &scratchPool{},
	}
	pg.assignShare, _ = graph.SliceShare(rt.Assign, nil)
	// The frontier index and the replica counts are derived rather than
	// persisted: pure functions of the (validated) tables, the index built by
	// its first reader, the counts by every reader that wants them.
	return pg, nil
}

// checkOffsets validates a CSR offset table: n+1 entries, starting at 0,
// non-decreasing, ending at total.
func checkOffsets(name string, offsets []int64, n int, total int64) error {
	if len(offsets) != n+1 {
		return fmt.Errorf("pregel: %s has %d entries, want %d", name, len(offsets), n+1)
	}
	if offsets[0] != 0 {
		return fmt.Errorf("pregel: %s does not start at 0", name)
	}
	for i := 0; i < n; i++ {
		if offsets[i+1] < offsets[i] {
			return fmt.Errorf("pregel: %s decreases at entry %d", name, i+1)
		}
	}
	if offsets[n] != total {
		return fmt.Errorf("pregel: %s ends at %d, want %d", name, offsets[n], total)
	}
	return nil
}
