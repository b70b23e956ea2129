// Package testutil provides the cross-strategy partition invariant checker:
// a single oracle that any (graph, strategy, partition count) combination
// can be verified against, independent of how the partitioned
// representation was constructed. Engine refactors (the sort/scatter
// builder replacing the hash-map builder) and new partitioning strategies
// are both validated by the same checks, so neither can silently break
// partition semantics.
//
// The invariants checked are the contracts the rest of the repository
// depends on:
//
//   - the assignment covers every edge exactly once with an in-range PID,
//     and each partition's live slots hold exactly its assigned live edges,
//     in global edge order (the AssignOrder alignment contract); tombstoned
//     edges keep a valid PID and appear in no live slot — a topology a
//     retraction was patched into keeps them as dead slots among the live
//     ones, a cold build leaves them out;
//   - local vertex tables are strictly sorted, deduplicated and in-range,
//     and their mirrors that are not ghosts are exactly the vertices touched
//     by the partition's live edges — no phantom mirrors, no ghost with a
//     live edge;
//   - the replica counts agree with an independent recount, and
//     TotalMirrors == CommCost + NonCut as computed by the metrics package
//     from the raw assignment.
//
// It also holds CheckStalledHeadersAreClosed, the listener-configuration
// check shared by the commands that serve HTTP, and SetGOMAXPROCS, how a
// test picks the worker count every fan-out reads.
package testutil

import (
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// CheckPartitionInvariants verifies every partition-semantics invariant of
// pg against the raw assignment it was built from. It returns an error
// describing the first violation found, or nil.
func CheckPartitionInvariants(g *graph.Graph, assign []partition.PID, numParts int, pg *pregel.PartitionedGraph) error {
	ne := g.NumEdges()
	nv := g.NumVertices()
	if len(assign) != ne {
		return fmt.Errorf("assignment has %d entries for %d edges", len(assign), ne)
	}
	if pg.NumParts != numParts || len(pg.Parts) != numParts {
		return fmt.Errorf("partition count mismatch: NumParts=%d len(Parts)=%d want %d",
			pg.NumParts, len(pg.Parts), numParts)
	}

	// PIDs in range; per-partition edge histograms. The assignment stays
	// dense-aligned on tombstoned graphs — every slot carries a valid PID —
	// but partitions hold live edges only, so dead slots are excluded from
	// the histogram.
	numDead := g.NumDeadEdges()
	wantEdges := make([]int, numParts)
	for i, p := range assign {
		if p < 0 || int(p) >= numParts {
			return fmt.Errorf("edge %d assigned to out-of-range partition %d", i, p)
		}
		if numDead != 0 && !g.EdgeAlive(i) {
			continue
		}
		wantEdges[p]++
	}
	total := 0
	for p, part := range pg.Parts {
		if part.NumEdges() != wantEdges[p] {
			return fmt.Errorf("partition %d holds %d edges, assignment gives it %d",
				p, part.NumEdges(), wantEdges[p])
		}
		total += part.NumEdges()
	}
	if total != ne-numDead {
		return fmt.Errorf("partitions hold %d edges in total, graph has %d live", total, ne-numDead)
	}

	// Local vertex tables: strictly sorted, in range.
	for p, part := range pg.Parts {
		lv := part.LocalVerts
		for l, gidx := range lv {
			if gidx < 0 || int(gidx) >= nv {
				return fmt.Errorf("partition %d local vertex %d maps to out-of-range global index %d", p, l, gidx)
			}
			if l > 0 && lv[l-1] >= gidx {
				return fmt.Errorf("partition %d LocalVerts not strictly sorted at %d (%d >= %d)",
					p, l, lv[l-1], gidx)
			}
		}
	}

	// Every edge assigned exactly once with exact endpoints: walking the
	// assignment must reproduce each partition's live slots in order.
	verts := g.Vertices()
	edges := g.Edges()
	cursor := make([]int, numParts)
	touched := make([][]bool, numParts)
	for p, part := range pg.Parts {
		touched[p] = make([]bool, len(part.LocalVerts))
	}
	for i, p := range pg.AssignOrder() {
		if assign[i] != p {
			return fmt.Errorf("AssignOrder[%d] = %d, assignment says %d", i, p, assign[i])
		}
		if numDead != 0 && !g.EdgeAlive(i) {
			continue // dead slot: keeps its PID for alignment, scattered nowhere
		}
		part := pg.Parts[p]
		j := cursor[p]
		for j < part.NumSlots() && part.Dead(j) {
			j++
		}
		if j >= part.NumSlots() {
			return fmt.Errorf("partition %d exhausted at global edge %d", p, i)
		}
		sL, dL := part.EdgeAt(j)
		cursor[p] = j + 1
		if sL < 0 || int(sL) >= len(part.LocalVerts) || dL < 0 || int(dL) >= len(part.LocalVerts) {
			return fmt.Errorf("partition %d edge %d has out-of-range local endpoints (%d, %d)", p, j, sL, dL)
		}
		touched[p][sL] = true
		touched[p][dL] = true
		src := verts[part.LocalVerts[sL]]
		dst := verts[part.LocalVerts[dL]]
		if src != edges[i].Src || dst != edges[i].Dst {
			return fmt.Errorf("edge %d: partition %d local edge %d decodes to (%d,%d), want (%d,%d)",
				i, p, j, src, dst, edges[i].Src, edges[i].Dst)
		}
	}
	for p, part := range pg.Parts {
		for j := cursor[p]; j < part.NumSlots(); j++ {
			if !part.Dead(j) {
				return fmt.Errorf("partition %d slot %d is live but no assigned edge is left for it", p, j)
			}
		}
	}
	for p, t := range touched {
		for l, ok := range t {
			switch ghost := pg.Parts[p].Ghost(l); {
			case !ok && !ghost:
				return fmt.Errorf("partition %d local vertex %d (global index %d) has no incident edge — phantom mirror",
					p, l, pg.Parts[p].LocalVerts[l])
			case ok && ghost:
				return fmt.Errorf("partition %d local vertex %d (global index %d) is a ghost with a live edge",
					p, l, pg.Parts[p].LocalVerts[l])
			}
		}
	}

	// Replica counts vs an independent recount, and vs the metrics package
	// computed from the raw assignment. Ghosts are no replica.
	mirrorCount := make([]int32, nv)
	for _, part := range pg.Parts {
		for l, gidx := range part.LocalVerts {
			if !part.Ghost(l) {
				mirrorCount[gidx]++
			}
		}
	}
	var totalMirrors int64
	reps := pg.ReplicaCounts()
	for v := 0; v < nv; v++ {
		if reps[v] != mirrorCount[v] {
			return fmt.Errorf("ReplicaCounts()[%d] = %d, recount gives %d", v, reps[v], mirrorCount[v])
		}
		totalMirrors += int64(mirrorCount[v])
	}
	if pg.TotalMirrors() != totalMirrors {
		return fmt.Errorf("TotalMirrors() = %d, recount gives %d", pg.TotalMirrors(), totalMirrors)
	}
	a, err := partition.NewAssignment(g, "", assign, numParts)
	if err != nil {
		return fmt.Errorf("metrics recomputation: %w", err)
	}
	m, err := metrics.FromAssignment(a)
	if err != nil {
		return fmt.Errorf("metrics recomputation: %w", err)
	}
	if pg.TotalMirrors() != m.CommCost+m.NonCut {
		return fmt.Errorf("TotalMirrors() = %d, metrics CommCost+NonCut = %d",
			pg.TotalMirrors(), m.CommCost+m.NonCut)
	}
	return nil
}

// CheckStrategy partitions g with s and verifies both the strategy output
// and the partitioned representation built from it.
func CheckStrategy(g *graph.Graph, s partition.Strategy, numParts int) error {
	assign, err := s.Partition(g, numParts)
	if err != nil {
		return fmt.Errorf("partitioning with %s: %w", s.Name(), err)
	}
	a, err := partition.NewAssignment(g, s.Name(), assign, numParts)
	if err != nil {
		return fmt.Errorf("partitioning with %s: %w", s.Name(), err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
	if err != nil {
		return fmt.Errorf("building partitioned graph for %s: %w", s.Name(), err)
	}
	if err := CheckPartitionInvariants(g, assign, numParts, pg); err != nil {
		return fmt.Errorf("strategy %s with %d parts: %w", s.Name(), numParts, err)
	}
	return nil
}
