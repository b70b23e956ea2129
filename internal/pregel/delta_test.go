package pregel

import (
	"math/rand"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

func deltaEdges(seed int64, nv, ne int) []graph.Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, ne)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(r.Intn(nv)), Dst: graph.VertexID(r.Intn(nv))}
	}
	return edges
}

// deltaStep patches pg to na. With indexParent it first builds every
// partition's frontier index. Nothing moves in a patch, so either way it
// checks that the child's partitions are indexed exactly where the
// parent's are, and that none of those indexes was built by a counting
// sort: a step that only retracted shares each partition's span and index
// with the parent, an appending step carries every parent index.
func deltaStep(t testing.TB, pg *PartitionedGraph, na *partition.Assignment, remap []int32, indexParent bool) *PartitionedGraph {
	t.Helper()
	if indexParent {
		for _, part := range pg.Parts {
			part.ensureFrontierIndex()
		}
	}
	built, carried := mFrontierBuilt.Value(), mFrontierCarried.Value()
	child, err := pg.ApplyDelta(na, remap)
	if err != nil {
		t.Fatal(err)
	}
	retractOnly := len(na.PIDs) == len(pg.assign)
	want := 0
	for p, part := range child.Parts {
		old := pg.Parts[p]
		if shared := part.edgeSpan == old.edgeSpan; shared != retractOnly {
			t.Fatalf("partition %d: span shared=%v on a step that retract-only=%v", p, shared, retractOnly)
		}
		indexed := old.frontierBuilt.Load()
		if indexed && !retractOnly {
			want++
		}
		if got := part.frontierBuilt.Load(); got != indexed {
			t.Fatalf("partition %d: indexed=%v after ApplyDelta, parent indexed=%v", p, got, indexed)
		}
	}
	if b, c := mFrontierBuilt.Value()-built, mFrontierCarried.Value()-carried; b != 0 || c != int64(want) {
		t.Fatalf("ApplyDelta counted %d built and %d carried indexes, want 0 and %d", b, c, want)
	}
	return child
}

// buildDelta assigns base, grows it by suffix, extends the assignment and
// patches the topology — after indexing the parent's partitions, when
// indexParent is set, so the patch carries their indexes; it returns the
// patched and the from-scratch topologies of the grown graph for comparison.
func buildDelta(t testing.TB, s partition.Strategy, base, suffix []graph.Edge, numParts, par int, indexParent bool) (patched, rebuilt *PartitionedGraph) {
	t.Helper()
	g := graph.FromEdges(append([]graph.Edge(nil), base...))
	a, err := partition.Assign(g, s, numParts)
	if err != nil {
		t.Fatal(err)
	}
	setGOMAXPROCS(t, par)
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ng, d := g.Grow(suffix)
	na, err := a.Extend(ng, s)
	if err != nil {
		t.Fatal(err)
	}
	remap, err := graph.RemapVertices(d.OldVerts, ng)
	if err != nil {
		t.Fatal(err)
	}
	patched = deltaStep(t, pg, na, remap, indexParent)
	rebuilt, err = NewPartitionedGraphFromAssignment(na, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return patched, rebuilt
}

// TestApplyDeltaMatchesFullBuild proves the patched topology is
// structurally identical — partitions, local vertex tables, edge order,
// frontier index, routing — to a from-scratch build of the grown graph,
// whether the patch carried the parent's frontier index or left it lazy.
func TestApplyDeltaMatchesFullBuild(t *testing.T) {
	strategies := append(partition.Extended(), partition.Hybrid(8))
	cases := []struct {
		name         string
		base, suffix []graph.Edge
	}{
		{"existing-verts", deltaEdges(1, 60, 800), deltaEdges(2, 60, 40)},
		{"new-high-ids", deltaEdges(3, 60, 800), []graph.Edge{{Src: 70, Dst: 71}, {Src: 71, Dst: 9}, {Src: 9, Dst: 70}}},
		{"interleaved-new-ids", deltaEdges(4, 40, 400), []graph.Edge{{Src: 200, Dst: 5}, {Src: 7, Dst: 300}, {Src: 300, Dst: 200}}},
		{"large-suffix", deltaEdges(5, 50, 300), deltaEdges(6, 90, 300)},
		{"empty-suffix", deltaEdges(7, 40, 300), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, s := range strategies {
				for _, numParts := range []int{1, 7, 32} {
					for _, par := range []int{1, 4} {
						for _, indexed := range []bool{false, true} {
							patched, rebuilt := buildDelta(t, s, tc.base, tc.suffix, numParts, par, indexed)
							if err := checkEquivalent(rebuilt, patched); err != nil {
								t.Fatalf("%s parts=%d par=%d indexed=%v: %v", s.Name(), numParts, par, indexed, err)
							}
						}
					}
				}
			}
		})
	}
}

// TestApplyDeltaLeavesOldTopologyIntact: patching must not disturb the old
// topology — in-flight runs keep reading it.
func TestApplyDeltaLeavesOldTopologyIntact(t *testing.T) {
	base, suffix := deltaEdges(8, 50, 500), deltaEdges(9, 80, 60)
	g := graph.FromEdges(append([]graph.Edge(nil), base...))
	s := partition.EdgePartition2D()
	a, err := partition.Assign(g, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ng, d := g.Grow(suffix)
	na, err := a.Extend(ng, s)
	if err != nil {
		t.Fatal(err)
	}
	remap, err := graph.RemapVertices(d.OldVerts, ng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.ApplyDelta(na, remap); err != nil {
		t.Fatal(err)
	}
	if err := checkEquivalent(before, pg); err != nil {
		t.Fatalf("old topology mutated by ApplyDelta: %v", err)
	}
}

// TestApplyDeltaRejectsUnstablePrefix: a strategy whose prefix assignment
// moved under growth (Range re-blocks when the ID span grows) must be
// detected, not silently patched.
func TestApplyDeltaRejectsUnstablePrefix(t *testing.T) {
	s := partition.Range()
	base := deltaEdges(10, 40, 400)
	g := graph.FromEdges(append([]graph.Edge(nil), base...))
	a, err := partition.Assign(g, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the ID span moves every block boundary.
	ng, d := g.Grow([]graph.Edge{{Src: 4000, Dst: 0}})
	na, err := a.Extend(ng, s)
	if err != nil {
		t.Fatal(err)
	}
	remap, err := graph.RemapVertices(d.OldVerts, ng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.ApplyDelta(na, remap); err == nil {
		t.Fatal("ApplyDelta accepted a shifted assignment prefix")
	}
}

// FuzzApplyDelta drives random (base, suffix, strategy, parts) tuples
// through the delta path and cross-checks against the full rebuild. Run
// long via `make fuzz`; the seed corpus runs on every `go test`.
func FuzzApplyDelta(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(40), uint8(8), uint8(0))
	f.Add(int64(2), uint16(1), uint16(1), uint8(1), uint8(1))
	f.Add(int64(3), uint16(900), uint16(200), uint8(33), uint8(2))
	f.Add(int64(4), uint16(50), uint16(500), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, baseN, sufN uint16, parts, strat uint8) {
		numParts := 1 + int(parts)%64
		strategies := append(partition.Extended(), partition.Hybrid(4))
		s := strategies[int(strat)%len(strategies)]
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(120)
		base := deltaEdges(seed+1, nv, 1+int(baseN)%1000)
		// Suffix may reuse base vertices or introduce arbitrary new IDs.
		suffix := make([]graph.Edge, int(sufN)%300)
		for i := range suffix {
			suffix[i] = graph.Edge{
				Src: graph.VertexID(r.Intn(3 * nv)),
				Dst: graph.VertexID(r.Intn(3 * nv)),
			}
		}
		par := 1 + r.Intn(4)
		for _, indexed := range []bool{false, true} {
			patched, rebuilt := buildDelta(t, s, base, suffix, numParts, par, indexed)
			if err := checkEquivalent(rebuilt, patched); err != nil {
				t.Fatalf("%s parts=%d indexed=%v: %v", s.Name(), numParts, indexed, err)
			}
		}
	})
}
