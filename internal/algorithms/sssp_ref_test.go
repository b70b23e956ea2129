package algorithms

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/rng"
	"cutfit/internal/testutil"
)

// mergeMin returns the element-wise minimum union of a and b in a fresh map
// (messages stay immutable).
func mergeMin(a, b DistMap) DistMap {
	out := make(DistMap, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if cur, ok := out[k]; !ok || v < cur {
			out[k] = v
		}
	}
	return out
}

// improvesByHop reports whether src would lower (or gain) any entry by
// adopting dst's distances one hop further.
func improvesByHop(src, dst DistMap) bool {
	for k, v := range dst {
		if cur, ok := src[k]; !ok || v+1 < cur {
			return true
		}
	}
	return false
}

// shortestPathsRef is the program HopDistances replaced, kept as the oracle
// for its distances and for every RunStats field: vertex values and messages
// are landmark→distance maps holding only reached landmarks, a fresh map per
// Init, per merge and per candidate message.
func shortestPathsRef(ctx context.Context, pg *pregel.PartitionedGraph, landmarks []graph.VertexID, maxIter int) ([]DistMap, *pregel.RunStats, error) {
	if len(landmarks) == 0 {
		return nil, nil, fmt.Errorf("algorithms: ShortestPaths needs at least one landmark")
	}
	isLandmark := make(map[graph.VertexID]bool, len(landmarks))
	for _, l := range landmarks {
		isLandmark[l] = true
	}
	mapBytes := func(m DistMap) int { return 16 + 12*len(m) }
	prog := pregel.Program[DistMap, DistMap]{
		Init: func(id graph.VertexID) DistMap {
			if isLandmark[id] {
				return DistMap{id: 0}
			}
			return DistMap{}
		},
		VProg: func(id graph.VertexID, val, msg DistMap) DistMap {
			if msg == nil { // superstep-0 initial message
				return val
			}
			return mergeMin(val, msg)
		},
		SendMsg: func(t *pregel.Triplet[DistMap], emit pregel.Emitter[DistMap]) {
			if !improvesByHop(t.SrcVal, t.DstVal) {
				return
			}
			cand := make(DistMap, len(t.DstVal))
			for k, v := range t.DstVal {
				cand[k] = v + 1
			}
			emit.ToSrc(cand)
		},
		MergeMsg:        mergeMin,
		InitialMsg:      nil,
		MaxIterations:   maxIter,
		ActiveDirection: pregel.In,
		StateBytes:      mapBytes,
		MsgBytes:        mapBytes,
		EdgeCost: func(t *pregel.Triplet[DistMap]) float64 {
			return 1 + float64(len(t.DstVal))
		},
	}
	return pregel.Run(ctx, pg, prog)
}

// spreadLandmarks picks k distinct vertices of g, evenly spaced over the
// sorted vertex list (all of them when the graph has fewer).
func spreadLandmarks(g *graph.Graph, k int) []graph.VertexID {
	verts := g.Vertices()
	k = min(k, len(verts))
	out := make([]graph.VertexID, k)
	for j := range out {
		out[j] = verts[j*len(verts)/k]
	}
	return out
}

// checkHopDistancesAgainstRef runs both programs on pg and requires equal
// distances and DeepEqual RunStats.
func checkHopDistancesAgainstRef(t testing.TB, pg *pregel.PartitionedGraph, landmarks []graph.VertexID, maxIter int) (HopTable, *pregel.RunStats) {
	t.Helper()
	ctx := context.Background()
	want, wantStats, err := shortestPathsRef(ctx, pg, landmarks, maxIter)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := HopDistances(ctx, pg, landmarks, maxIter)
	if err != nil {
		t.Fatal(err)
	}
	if maps := got.DistMaps(); !reflect.DeepEqual(maps, want) {
		for v := range want {
			if !reflect.DeepEqual(maps[v], want[v]) {
				t.Fatalf("vertex %d: distances %v, reference %v", pg.G.Vertices()[v], maps[v], want[v])
			}
		}
		t.Fatalf("%d rows, reference has %d", len(maps), len(want))
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("RunStats differ from the reference:\n got %+v\nwant %+v", gotStats, wantStats)
	}
	return got, gotStats
}

// TestHopDistancesMatchesRef: the fixed-width program returns the map
// program's distances and its RunStats field for field — so StateBytes,
// MsgBytes and EdgeCost count reached slots exactly as the maps counted
// entries — under every strategy, on the Triangle Count matrix's graph
// shapes (skewed, road, uniform, multigraph, tombstoned, block-backed), with
// and without buffer reuse (the reuse leg runs twice, so the second run is on
// a revived scratch), serial and parallel, at an exact width and a padded
// one.
func TestHopDistancesMatchesRef(t *testing.T) {
	for name, g := range triangleTestGraphs(t) {
		for _, s := range testStrategies {
			a, err := partition.Assign(g, s, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, reuse := range []bool{false, true} {
				for _, par := range []int{1, 8} {
					testutil.SetGOMAXPROCS(t, par)
					pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{ReuseBuffers: reuse})
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []int{1, 3} {
						t.Run(fmt.Sprintf("%s/%s/reuse=%v/par=%d/k=%d", name, s.Name(), reuse, par, k), func(t *testing.T) {
							lm := spreadLandmarks(g, k)
							checkHopDistancesAgainstRef(t, pg, lm, 0)
							if reuse {
								checkHopDistancesAgainstRef(t, pg, lm, 0)
							}
						})
					}
				}
			}
		}
	}
}

// TestHopDistancesLandmarkCases defines the landmark edge cases and checks
// each against the reference program.
func TestHopDistancesLandmarkCases(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 5, 31))
	if err != nil {
		t.Fatal(err)
	}
	verts := g.Vertices()
	if len(verts) <= MaxLandmarks {
		t.Fatalf("test graph has %d vertices, need more than %d", len(verts), MaxLandmarks)
	}
	pg := mustPartition(t, g, partition.EdgePartition2D(), 6)
	absent := verts[len(verts)-1] + 1000

	t.Run("duplicates share one column", func(t *testing.T) {
		dup := []graph.VertexID{verts[3], verts[9], verts[3], verts[3], verts[9]}
		got, gotStats := checkHopDistancesAgainstRef(t, pg, dup, 0)
		if want := []graph.VertexID{verts[3], verts[9]}; !reflect.DeepEqual(got.Landmarks, want) {
			t.Fatalf("columns %v, want %v", got.Landmarks, want)
		}
		_, plainStats := checkHopDistancesAgainstRef(t, pg, []graph.VertexID{verts[3], verts[9]}, 0)
		if !reflect.DeepEqual(gotStats, plainStats) {
			t.Fatal("duplicated landmarks changed RunStats")
		}
	})

	t.Run("absent landmark is reached from nowhere", func(t *testing.T) {
		got, stats := checkHopDistancesAgainstRef(t, pg, []graph.VertexID{absent}, 0)
		if n := got.Reached(); n != 0 {
			t.Fatalf("%d vertices reach a landmark outside the graph", n)
		}
		if stats.NumSupersteps() != 1 || !stats.Converged || stats.Supersteps[0].MsgsEmitted != 0 {
			t.Fatalf("run did not converge silently after superstep 1: %+v", stats)
		}
		// Beside a real landmark it is an all-unreached column.
		got, _ = checkHopDistancesAgainstRef(t, pg, []graph.VertexID{absent, verts[0]}, 0)
		for v := 0; v < got.NumVertices(); v++ {
			if d := got.Row(v)[0]; d != Unreached {
				t.Fatalf("vertex %d is %d hops from an absent landmark", verts[v], d)
			}
		}
	})

	t.Run("maxIter caps the rounds", func(t *testing.T) {
		for _, maxIter := range []int{1, 2, 3} {
			got, stats := checkHopDistancesAgainstRef(t, pg, []graph.VertexID{verts[0], verts[5]}, maxIter)
			if stats.NumSupersteps() > maxIter {
				t.Fatalf("maxIter %d ran %d supersteps", maxIter, stats.NumSupersteps())
			}
			// One hop per round: after r rounds nothing beyond r hops is known.
			for _, d := range got.Dist {
				if d != Unreached && int(d) > maxIter {
					t.Fatalf("maxIter %d knows a distance of %d", maxIter, d)
				}
			}
		}
	})

	t.Run("tombstoned generation", func(t *testing.T) {
		// Retract every edge of the landmark: it stays a vertex of the
		// generation (tombstones keep the vertex list), reaches itself and
		// is reached by no one.
		lm := verts[4]
		var gone []graph.Edge
		for _, e := range g.Edges() {
			if e.Src == lm || e.Dst == lm {
				gone = append(gone, e)
			}
		}
		if len(gone) == 0 {
			t.Fatal("landmark has no edges to retract")
		}
		ng, d, err := g.Shrink(gone)
		if err != nil {
			t.Fatal(err)
		}
		if d.Compacted {
			t.Fatal("retraction compacted; no tombstones to test")
		}
		a, err := partition.Assign(ng, partition.EdgePartition2D(), 6)
		if err != nil {
			t.Fatal(err)
		}
		npg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := checkHopDistancesAgainstRef(t, npg, []graph.VertexID{lm, verts[0]}, 0)
		li, ok := ng.Index(lm)
		if !ok {
			t.Fatal("the landmark left the vertex list")
		}
		for v := 0; v < got.NumVertices(); v++ {
			want := Unreached
			if int32(v) == li {
				want = 0
			}
			if d := got.Row(v)[0]; d != want {
				t.Fatalf("vertex %d: %d hops to the isolated landmark, want %d", ng.Vertices()[v], d, want)
			}
		}
		seq := ShortestPathsSeq(ng, []graph.VertexID{lm, verts[0]})
		if !reflect.DeepEqual(got.DistMaps(), seq) {
			t.Fatal("distances on the tombstoned generation differ from the sequential oracle")
		}
	})

	t.Run("widths", func(t *testing.T) {
		for _, k := range []int{1, 2, 3, 5, 8, 9, 64} {
			lm := spreadLandmarks(g, k)
			got, _ := checkHopDistancesAgainstRef(t, pg, lm, 0)
			if len(got.Landmarks) != k || len(got.Dist) != k*len(verts) {
				t.Fatalf("k=%d: table of %d columns and %d cells", k, len(got.Landmarks), len(got.Dist))
			}
			if !reflect.DeepEqual(got.DistMaps(), ShortestPathsSeq(g, lm)) {
				t.Fatalf("k=%d: distances differ from the sequential oracle", k)
			}
		}
		lm := spreadLandmarks(g, MaxLandmarks+1)
		if _, _, err := HopDistances(context.Background(), pg, lm, 0); err == nil {
			t.Fatalf("%d landmarks accepted, limit is %d", len(lm), MaxLandmarks)
		}
		// 65 entries naming 64 distinct landmarks are within the limit.
		lm[MaxLandmarks] = lm[0]
		checkHopDistancesAgainstRef(t, pg, lm, 0)
	})
}

// FuzzHopDistances: random small graphs and landmark sets (duplicates and
// vertices outside the graph included), fixed-width program against the map
// program.
func FuzzHopDistances(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(5), uint8(2))
	f.Add(uint64(3), uint8(11), uint8(9), uint8(0))
	f.Add(uint64(4), uint8(6), uint8(70), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, partsRaw, kRaw, maxIter uint8) {
		g := randomGraph(seed, 60, 240)
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		landmarks := make([]graph.VertexID, 1+int(kRaw)%80)
		for j := range landmarks {
			// IDs are 0..nv-1; the top tenth of the draw falls outside.
			landmarks[j] = graph.VertexID(r.Intn(g.NumVertices() + g.NumVertices()/10 + 1))
		}
		s := testStrategies[int(partsRaw)%len(testStrategies)]
		pg := mustPartition(t, g, s, 1+int(partsRaw)%9)
		distinct := map[graph.VertexID]bool{}
		for _, l := range landmarks {
			distinct[l] = true
		}
		if len(distinct) > MaxLandmarks {
			if _, _, err := HopDistances(context.Background(), pg, landmarks, 0); err == nil {
				t.Fatalf("%d distinct landmarks accepted", len(distinct))
			}
			return
		}
		checkHopDistancesAgainstRef(t, pg, landmarks, int(maxIter)%5)
	})
}
