package pregel

import (
	"context"
	"sync"
	"testing"
	"time"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// evenIDs spreads deltaEdges' vertices over the even IDs from 100 up, so a
// batch can name vertices below, between and above the old ones.
func evenIDs(edges []graph.Edge) []graph.Edge {
	for i, e := range edges {
		edges[i] = graph.Edge{Src: 100 + 2*e.Src, Dst: 100 + 2*e.Dst}
	}
	return edges
}

// TestCarriedIndexChains: a carried index is carried again. Four append steps
// from one indexed parent, each patched from the one before: a batch among old
// vertices, fresh vertices above every old one (appended past the end of the
// mirror tables, nil remap), below and between them (a non-nil remap, fresh
// mirrors inserted mid-table) and a mix — on enough partitions that some
// start empty and some stay empty. Every step carries every partition's index
// (deltaStep) and each equals the rebuilt topology's (checkEquivalent).
func TestCarriedIndexChains(t *testing.T) {
	batches := [][]graph.Edge{
		evenIDs(deltaEdges(42, 30, 25)),
		{{Src: 400, Dst: 402}, {Src: 402, Dst: 110}, {Src: 500, Dst: 104}},
		{{Src: 5, Dst: 121}, {Src: 7, Dst: 9}, {Src: 133, Dst: 104}, {Src: 101, Dst: 101}},
		deltaEdges(43, 600, 40),
	}
	for _, s := range append(partition.Extended(), partition.Hybrid(4)) {
		for _, numParts := range []int{1, 7, 64} {
			for _, par := range []int{1, 4} {
				g := graph.FromEdges(evenIDs(deltaEdges(41, 30, 90)))
				a, err := partition.Assign(g, s, numParts)
				if err != nil {
					t.Fatal(err)
				}
				pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				remapped, midTable, pastEnd, emptyCarried := false, false, false, false
				for step, batch := range batches {
					ng, d := g.Grow(batch)
					na, err := a.Extend(ng, s)
					if err != nil {
						t.Fatal(err)
					}
					remap, err := graph.RemapVertices(d.OldVerts, ng)
					if err != nil {
						t.Fatal(err)
					}
					remapped = remapped || remap != nil
					for _, part := range pg.Parts {
						emptyCarried = emptyCarried || (step > 0 && part.NumEdges() == 0)
					}
					child := deltaStep(t, pg, na, remap, step == 0)
					for p, part := range child.Parts {
						fresh, nOld := freshLocals(pg.Parts[p], part, remap), len(pg.Parts[p].LocalVerts)
						if len(fresh) > 0 && int(fresh[0]) < nOld {
							midTable = true
						} else if len(fresh) > 0 {
							pastEnd = true
						}
					}
					if n := child.FrontierIndexes(); n != numParts {
						t.Fatalf("%s parts=%d step %d: %d of %d partitions indexed", s.Name(), numParts, step, n, numParts)
					}
					rebuilt, err := NewPartitionedGraphFromAssignment(na, BuildOptions{Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					if err := checkEquivalent(rebuilt, child); err != nil {
						t.Fatalf("%s parts=%d par=%d step %d: %v", s.Name(), numParts, par, step, err)
					}
					g, a, pg = ng, na, child
				}
				if !remapped || !midTable || !pastEnd {
					t.Fatalf("%s parts=%d: remapped=%v, mirrors inserted mid-table=%v, past the end=%v; want all three",
						s.Name(), numParts, remapped, midTable, pastEnd)
				}
				if numParts == 64 && !emptyCarried {
					t.Fatalf("%s: no empty partition carried its index", s.Name())
				}
			}
		}
	}
}

// TestCarriedIndexIsPriced: an append child of an indexed parent holds its
// index from the start, so MemoryFootprint prices it before any run — the
// bytes the lazy child reaches once its own index is built.
func TestCarriedIndexIsPriced(t *testing.T) {
	s := partition.EdgePartition2D()
	g := graph.FromEdges(deltaEdges(44, 200, 3000))
	a, err := partition.Assign(g, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	ng, d := g.Grow(deltaEdges(45, 260, 60))
	na, err := a.Extend(ng, s)
	if err != nil {
		t.Fatal(err)
	}
	remap, err := graph.RemapVertices(d.OldVerts, ng)
	if err != nil {
		t.Fatal(err)
	}
	var children [2]*PartitionedGraph
	for i, indexed := range []bool{false, true} {
		pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		children[i] = deltaStep(t, pg, na, remap, indexed)
	}
	lazy, carried := children[0], children[1]
	if lazy.FrontierIndexes() != 0 || carried.FrontierIndexes() != carried.NumParts {
		t.Fatalf("indexed partitions: lazy child %d, carried child %d of %d", lazy.FrontierIndexes(), carried.FrontierIndexes(), carried.NumParts)
	}
	before := carried.MemoryFootprint()
	if before <= lazy.MemoryFootprint() {
		t.Fatalf("carried child priced at %d B, no more than the unindexed child's %d", before, lazy.MemoryFootprint())
	}
	built := mFrontierBuilt.Value()
	for _, part := range lazy.Parts {
		part.ensureFrontierIndex()
	}
	if n := mFrontierBuilt.Value() - built; n != int64(lazy.NumParts) {
		t.Fatalf("building the lazy child's indexes counted %d, want %d", n, lazy.NumParts)
	}
	if lazy.MemoryFootprint() != before {
		t.Fatalf("lazy child priced at %d B once indexed, the carried child at %d", lazy.MemoryFootprint(), before)
	}
}

// TestApplyDeltaRacesIndexBuild: ApplyDelta on a parent whose frontier
// indexes a sparse run is building at that moment. Each child partition
// either carries a complete index or stays lazy, and either way ends up with
// the rebuilt topology's (run under -race by `make race`).
func TestApplyDeltaRacesIndexBuild(t *testing.T) {
	s := partition.EdgePartition2D()
	g := graph.FromEdges(deltaEdges(46, 300, 6000))
	a, err := partition.Assign(g, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	ng, _ := g.Grow(deltaEdges(47, 300, 80))
	na, err := a.Extend(ng, s)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewPartitionedGraphFromAssignment(na, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := Run(context.Background(), pg, ccTestProgram(ScanSparse)); err != nil {
				t.Error(err)
			}
		}()
		child, err := pg.ApplyDelta(na, nil)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEquivalent(rebuilt, child); err != nil {
			t.Fatalf("round %d (%d partitions carried): %v", round, child.FrontierIndexes(), err)
		}
	}
}

// freshLocals is what patchPartition reports of the mirrors a step added,
// recomputed from the two mirror tables: their new local indices, ascending.
func freshLocals(old, child *Partition, remap []int32) []int32 {
	var fresh []int32
	l := 0
	for at, v := range child.LocalVerts {
		if l < len(old.LocalVerts) {
			if w := old.LocalVerts[l]; remap == nil && w == v || remap != nil && remap[w] == v {
				l++
				continue
			}
		}
		fresh = append(fresh, int32(at))
	}
	return fresh
}

// BenchmarkCarryFrontierIndex prices the carry against the counting sort it
// replaces, on the stream-update shape: a 1M-edge R-MAT graph (scale 17), 2D
// over 64 partitions, grown by its last 0.5 %. Every op derives each child
// partition's frontier index both ways, serially, from the same inputs:
// carried_ms is carryFrontierIndex, rebuilt_ms buildEdgeIndex, and
// carried/rebuilt their ratio.
func BenchmarkCarryFrontierIndex(b *testing.B) {
	const numParts = 64
	full, err := gen.RMAT(gen.DefaultRMAT(17, 8, 1))
	if err != nil {
		b.Fatal(err)
	}
	edges := full.Edges()
	cut := len(edges) - len(edges)/200
	g := graph.FromEdges(append([]graph.Edge(nil), edges[:cut]...))
	s := partition.EdgePartition2D()
	a, err := partition.Assign(g, s, numParts)
	if err != nil {
		b.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, part := range pg.Parts {
		part.ensureFrontierIndex()
	}
	ng, d := g.Grow(edges[cut:])
	na, err := a.Extend(ng, s)
	if err != nil {
		b.Fatal(err)
	}
	remap, err := graph.RemapVertices(d.OldVerts, ng)
	if err != nil {
		b.Fatal(err)
	}
	child, err := pg.ApplyDelta(na, remap)
	if err != nil {
		b.Fatal(err)
	}
	fresh := make([][]int32, numParts)
	for p, part := range child.Parts {
		fresh[p] = freshLocals(pg.Parts[p], part, remap)
	}
	var carried, rebuilt time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p, part := range child.Parts {
			np := &Partition{LocalVerts: part.LocalVerts, edges: part.edges}
			start := time.Now()
			np.carryFrontierIndex(pg.Parts[p], fresh[p])
			carried += time.Since(start)
			np = &Partition{LocalVerts: part.LocalVerts, edges: part.edges}
			start = time.Now()
			buildEdgeIndex(np)
			rebuilt += time.Since(start)
		}
	}
	b.ReportMetric(carried.Seconds()*1e3/float64(b.N), "carried_ms")
	b.ReportMetric(rebuilt.Seconds()*1e3/float64(b.N), "rebuilt_ms")
	b.ReportMetric(carried.Seconds()/rebuilt.Seconds(), "carried/rebuilt")
}
