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

// checkTrianglePlan verifies the plan against its definition: the
// partitions' positions are exactly the graph's canonical live edges, each
// once, and every hub's edges form one run with ascending positions.
func checkTrianglePlan(t *testing.T, pg *PartitionedGraph) {
	t.Helper()
	plan := pg.TrianglePlan()
	g := pg.G
	canon := g.CanonicalEdges()
	want := make([][]int32, pg.NumParts)
	cursor := make([]int32, pg.NumParts)
	for i, p := range pg.AssignOrder() {
		if !g.EdgeAlive(i) {
			continue
		}
		if canon[i>>6]&(1<<(uint(i)&63)) != 0 {
			want[p] = append(want[p], cursor[p])
		}
		cursor[p]++
	}
	off, _ := g.UndirectedAdjacency()
	for p, pos := range plan {
		part := pg.Parts[p]
		if sorted := slices.Sorted(slices.Values(pos)); !slices.Equal(sorted, want[p]) {
			t.Fatalf("partition %d: plan holds %v, canonical positions are %v", p, sorted, want[p])
		}
		closed := make(map[int32]bool)
		prevHub, prevPos := int32(-1), int32(-1)
		for _, j := range pos {
			hub := part.TriangleHub(j, off)
			switch {
			case hub != prevHub:
				if closed[hub] {
					t.Fatalf("partition %d: hub %d appears in two runs", p, hub)
				}
				closed[prevHub] = true
			case j <= prevPos:
				t.Fatalf("partition %d: positions descend inside hub %d's run", p, hub)
			}
			prevHub, prevPos = hub, j
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
		plans := make([][][]int32, 6)
		for i := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				plans[i] = pg.TrianglePlan()
			}()
		}
		wg.Wait()
		var held int64
		for p := range plans[0] {
			held += int64(len(plans[0][p]))
			for i := range plans {
				if len(plans[0][p]) > 0 && &plans[i][p][0] != &plans[0][p][0] {
					t.Fatalf("%s: concurrent first callers saw different plans", s.Name())
				}
			}
		}
		if grew := pg.MemoryFootprint() - before; grew != 4*held {
			t.Fatalf("%s: footprint grew %d bytes for %d planned edges", s.Name(), grew, held)
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
