package pregel

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// TestRoutingBuiltOnFirstUse: no construction path builds the routing CSR —
// a cold build, a restore from raw tables, a patched generation — and a run
// does not either; the first accessor builds it, equal to the serial
// reference whatever the worker count (including more workers than
// vertices), and MemoryFootprint starts pricing it exactly then.
func TestRoutingBuiltOnFirstUse(t *testing.T) {
	for _, tc := range []struct {
		name        string
		nv, ne, par int
	}{
		{"one worker", 80, 700, 1},
		{"three workers", 80, 700, 3},
		{"more workers than vertices", 5, 12, 16},
	} {
		g := graph.FromEdges(deltaEdges(int64(tc.ne), tc.nv, tc.ne))
		a, err := partition.Assign(g, partition.EdgePartition2D(), 9)
		if err != nil {
			t.Fatal(err)
		}
		built, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: tc.par})
		if err != nil {
			t.Fatal(err)
		}
		restored, err := FromRawTables(g, built.RawTables(), BuildOptions{Parallelism: tc.par})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			path string
			pg   *PartitionedGraph
		}{{"built", built}, {"restored", restored}} {
			if _, _, err := Run(context.Background(), c.pg, pagerankProgram(c.pg)); err != nil {
				t.Fatal(err)
			}
			if c.pg.RoutingBuilt() {
				t.Fatalf("%s, %s: routing CSR built before any reader asked", tc.name, c.path)
			}
			before := c.pg.MemoryFootprint()
			if err := checkRouting(c.pg); err != nil {
				t.Fatalf("%s, %s: %v", tc.name, c.path, err)
			}
			want := 8*int64(g.NumVertices()+1) + 8*c.pg.TotalMirrors()
			if grew := c.pg.MemoryFootprint() - before; grew != want {
				t.Fatalf("%s, %s: footprint grew %d bytes with the routing CSR, want %d", tc.name, c.path, grew, want)
			}
		}
	}
}

// TestShardTopologyMirroredSet: a worker's mirrored-vertex set is exactly the
// vertices with a row in the routing CSR over the partitions it owns.
func TestShardTopologyMirroredSet(t *testing.T) {
	g := randomGraph(9, 200, 1500)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 7)
	for _, W := range []int{1, 2, 3} {
		for w, topo := range shardTopologies(pg, W) {
			offs, _ := routingCSR(g.NumVertices(), topo.parts)
			for v := 0; v < g.NumVertices(); v++ {
				want := offs[v] != offs[v+1]
				if got := topo.mirrored[v>>6]>>(v&63)&1 != 0; got != want {
					t.Fatalf("W=%d worker %d vertex %d: mirrored %v, routing says %v", W, w, v, got, want)
				}
			}
		}
	}
}

// TestRoutingConcurrentFirstUse races every first reader of a fresh
// ApplyDelta child's routing CSR — Mirrors, MirrorsOf, TotalMirrors, Metrics
// — against runs and MemoryFootprint on the same topology (run under -race by
// `make race`): one build, every reader sees it, and runs never touch it.
func TestRoutingConcurrentFirstUse(t *testing.T) {
	s := partition.EdgePartition2D()
	for _, par := range []int{1, 4} {
		patched, rebuilt := buildDelta(t, s, deltaEdges(31, 90, 1500), deltaEdges(32, 120, 200), 8, par, false)
		want := rebuilt.Metrics()
		wantRanks, wantStats, err := Run(context.Background(), rebuilt, pagerankProgram(rebuilt))
		if err != nil {
			t.Fatal(err)
		}
		nv := int32(patched.G.NumVertices())
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				switch i % 4 {
				case 0:
					var sum int64
					for v := int32(0); v < nv; v++ {
						sum += int64(patched.Mirrors(v))
					}
					if sum != rebuilt.TotalMirrors() {
						errs <- "Mirrors sum differs from the rebuild's TotalMirrors"
					}
				case 1:
					for v := int32(0); v < nv; v++ {
						if !slices.Equal(patched.MirrorsOf(v), rebuilt.MirrorsOf(v)) {
							errs <- "MirrorsOf differs from the rebuild's"
							return
						}
					}
				case 2:
					if !reflect.DeepEqual(patched.Metrics(), want) {
						errs <- "Metrics differ from the rebuild's"
					}
				case 3:
					ranks, stats, err := Run(context.Background(), patched, pagerankProgram(patched))
					if err != nil || !slices.Equal(ranks, wantRanks) || !reflect.DeepEqual(stats, wantStats) {
						errs <- "a run racing the routing build diverged from the rebuild's"
					}
					patched.MemoryFootprint()
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Errorf("par %d: %s", par, msg)
		}
		if err := checkRouting(patched); err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
	}
}

// retractionPositionsRef is the serial construction retractionPositions
// replaced: one ascending pass over the old span tracking each partition's
// running position in its live edge list.
func retractionPositionsRef(pg *PartitionedGraph, ng *graph.Graph, oldLen int) [][]int32 {
	var removed [][]int32
	pos := make([]int32, pg.NumParts)
	for i := 0; i < oldLen; i++ {
		if !pg.G.EdgeAlive(i) {
			continue
		}
		p := pg.assign[i]
		if !ng.EdgeAlive(i) {
			if removed == nil {
				removed = make([][]int32, pg.NumParts)
			}
			removed[p] = append(removed[p], pos[p])
		}
		pos[p]++
	}
	return removed
}

// TestRetractionPositionsAcrossChunks holds the chunked retraction locator to
// the serial pass over spans of several chunks, with retractions landing in
// some chunks and not others, on the first chunk boundary, at the very end,
// and over a parent that already carries tombstones — at one worker and four.
func TestRetractionPositionsAcrossChunks(t *testing.T) {
	const ne = 3*retractionChunk + 777
	r := rand.New(rand.NewSource(41))
	g := graph.FromEdges(deltaEdges(41, 3000, ne))
	for _, par := range []int{1, 4} {
		a, err := partition.Assign(g, partition.EdgePartition2D(), 16)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		cur := g
		for step, positions := range [][]int{
			{retractionChunk - 1, retractionChunk, ne - 1},
			{5, 2*retractionChunk + 3, ne - 2},
			nil, // random, below
		} {
			if positions == nil {
				for range 300 {
					positions = append(positions, r.Intn(retractionChunk))
				}
			}
			edges := cur.Edges()
			var batch []graph.Edge
			for _, i := range positions {
				if cur.EdgeAlive(i) {
					batch = append(batch, edges[i])
				}
			}
			ng, d, err := cur.Shrink(batch)
			if err != nil || d.Compacted {
				t.Fatalf("step %d: shrink: %v (compacted %v)", step, err, d.Compacted)
			}
			got, err := retractionPositions(pg, ng, ne)
			if err != nil {
				t.Fatal(err)
			}
			if want := retractionPositionsRef(pg, ng, ne); !reflect.DeepEqual(got, want) {
				t.Fatalf("par %d step %d: chunked positions differ from the serial pass", par, step)
			}
			na, err := a.Extend(ng, partition.EdgePartition2D())
			if err != nil {
				t.Fatal(err)
			}
			if pg, err = pg.ApplyDelta(na, nil); err != nil {
				t.Fatal(err)
			}
			cur, a = ng, na
		}
	}
}
