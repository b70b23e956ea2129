package pregel

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// checkTrianglePlan verifies the plan against its definition: every
// partition's runs hold exactly its canonical live edges, each under its
// endpoint with the larger undirected neighbor set (the source on ties) and
// in edge order.
func checkTrianglePlan(t *testing.T, pg *PartitionedGraph) {
	t.Helper()
	plan := pg.TrianglePlan()
	g := pg.G
	canon := g.CanonicalEdges()
	want := make([][][]int32, pg.NumParts) // partition -> hub -> leaves
	for p, part := range pg.Parts {
		want[p] = make([][]int32, part.NumLocalVertices())
	}
	cursor := make([]int, pg.NumParts)
	for i, p := range pg.AssignOrder() {
		if !g.EdgeAlive(i) {
			continue
		}
		if canon[i>>6]&(1<<(uint(i)&63)) != 0 {
			part := pg.Parts[p]
			hub, leaf := part.EdgeAt(cursor[p])
			if len(g.UndirectedNeighbors(part.LocalVerts[leaf])) > len(g.UndirectedNeighbors(part.LocalVerts[hub])) {
				hub, leaf = leaf, hub
			}
			want[p][hub] = append(want[p][hub], leaf)
		}
		cursor[p]++
	}
	for p, runs := range plan {
		n := pg.Parts[p].NumLocalVertices()
		if len(runs.Off) != n+1 || runs.Off[0] != 0 || int(runs.Off[n]) != len(runs.Leaf) {
			t.Fatalf("partition %d: offsets %v do not frame %d leaves of %d vertices", p, runs.Off, len(runs.Leaf), n)
		}
		for hub := 0; hub < n; hub++ {
			if got := runs.Leaf[runs.Off[hub]:runs.Off[hub+1]]; !slices.Equal(got, want[p][hub]) {
				t.Fatalf("partition %d hub %d: leaves %v, want %v", p, hub, got, want[p][hub])
			}
		}
	}
}

// TestTrianglePlan: the plan is right on a cold build, on a tombstoned
// generation both patched and cold-built (dead slots advance no cursor),
// and is built once however many runs ask for it first.
func TestTrianglePlan(t *testing.T) {
	for _, s := range []partition.Strategy{partition.EdgePartition2D(), partition.SourceCut(), partition.Greedy()} {
		g := graph.FromEdges(deltaEdges(21, 70, 1200))
		a, err := partition.Assign(g, s, 9)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}

		before := pg.MemoryFootprint()
		var wg sync.WaitGroup
		plans := make([][]TriangleRuns, 6)
		for i := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				plans[i] = pg.TrianglePlan()
			}()
		}
		wg.Wait()
		var held int64
		for _, runs := range plans[0] {
			held += int64(len(runs.Off) + len(runs.Leaf))
		}
		for i := range plans {
			if &plans[i][0] != &plans[0][0] {
				t.Fatalf("%s: concurrent first callers saw different plans", s.Name())
			}
		}
		if grew := pg.MemoryFootprint() - before; grew != 4*held {
			t.Fatalf("%s: footprint grew %d bytes for %d plan entries", s.Name(), grew, held)
		}
		checkTrianglePlan(t, pg)

		ng, d, err := g.Shrink(retractBatch(rand.New(rand.NewSource(5)), g, 200))
		if err != nil || d.Compacted {
			t.Fatalf("shrink: %v (compacted=%v)", err, d.Compacted)
		}
		na, err := a.Extend(ng, s)
		if err != nil {
			t.Fatal(err)
		}
		patched, err := pg.ApplyDelta(na, nil)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := NewPartitionedGraphFromAssignment(na, BuildOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkTrianglePlan(t, patched)
		checkTrianglePlan(t, rebuilt)
		if !reflect.DeepEqual(patched.TrianglePlan(), rebuilt.TrianglePlan()) {
			t.Fatalf("%s: patched and rebuilt topologies plan differently", s.Name())
		}
	}
}
