package pregel

import (
	"math/rand"
	"reflect"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// replicaTopologies builds one topology per construction path — a cold
// build, a restore from raw tables and an ApplyDelta child — at par workers.
func replicaTopologies(t *testing.T, nv, ne, par int) map[string]*PartitionedGraph {
	t.Helper()
	s := partition.EdgePartition2D()
	g := graph.FromEdges(deltaEdges(int64(ne), nv, ne))
	a, err := partition.Assign(g, s, 9)
	if err != nil {
		t.Fatal(err)
	}
	setGOMAXPROCS(t, par)
	built, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, built.NumParts)
	for p, part := range built.Parts {
		counts[p] = int64(len(part.edges))
	}
	restored, err := FromRawTables(g.NumVertices(), built.RawTables(), counts, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	restored.G = g
	patched, _ := buildDelta(t, s, deltaEdges(int64(ne), nv, ne), deltaEdges(int64(ne)+1, nv+3, ne/4+1), 9, par, false)
	return map[string]*PartitionedGraph{"built": built, "restored": restored, "patched": patched}
}

// TestReplicaCountsMatchSerial holds ReplicaCounts and TotalMirrors to the
// serial count on every construction path, whatever the worker count
// (including more workers than vertices).
func TestReplicaCountsMatchSerial(t *testing.T) {
	for _, tc := range []struct {
		name        string
		nv, ne, par int
	}{
		{"one worker", 80, 700, 1},
		{"three workers", 80, 700, 3},
		{"more workers than vertices", 5, 12, 16},
	} {
		for path, pg := range replicaTopologies(t, tc.nv, tc.ne, tc.par) {
			if err := checkReplicas(pg); err != nil {
				t.Fatalf("%s, %s: %v", tc.name, path, err)
			}
		}
	}
}

// TestReplicaReadersLeaveFootprint: the topology keeps nothing for the
// readers of its replica counts — Metrics, ReplicaCounts, TotalMirrors leave
// MemoryFootprint where it was.
func TestReplicaReadersLeaveFootprint(t *testing.T) {
	for path, pg := range replicaTopologies(t, 80, 700, 4) {
		before := pg.MemoryFootprint()
		pg.Metrics()
		pg.ReplicaCounts()
		pg.TotalMirrors()
		if after := pg.MemoryFootprint(); after != before {
			t.Fatalf("%s: footprint went from %d to %d bytes across the replica readers", path, before, after)
		}
	}
}

// TestShardTopologyMirroredSet: a worker's mirrored-vertex set is exactly the
// vertices with a replica in the partitions it owns.
func TestShardTopologyMirroredSet(t *testing.T) {
	g := randomGraph(9, 200, 1500)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 7)
	for _, W := range []int{1, 2, 3} {
		for w, topo := range shardTopologies(pg, W) {
			reps := replicaCountsRef(g.NumVertices(), topo.parts)
			for v := 0; v < g.NumVertices(); v++ {
				want := reps[v] != 0
				if got := topo.mirrored[v>>6]>>(v&63)&1 != 0; got != want {
					t.Fatalf("W=%d worker %d vertex %d: mirrored %v, the replica count says %v", W, w, v, got, want)
				}
			}
		}
	}
}

// retractionPositionsRef is the serial construction retractionPositions
// replaced: one ascending pass over the old span tracking each partition's
// running slot in its span — every position the scatter gave a slot, dead
// or alive (see PartitionedGraph.spanDead).
func retractionPositionsRef(pg *PartitionedGraph, ng *graph.Graph, oldLen int) [][]int32 {
	var removed [][]int32
	pos := make([]int32, pg.NumParts)
	slotless := pg.slotless()
	for i := 0; i < oldLen; i++ {
		if i>>6 < len(slotless) && bitSet(slotless, i) {
			continue
		}
		p := pg.assign[i]
		if pg.G.EdgeAlive(i) && !ng.EdgeAlive(i) {
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
		setGOMAXPROCS(t, par)
		pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
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
