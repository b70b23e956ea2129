package pregel_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/dist"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// tombstoneSteps are the generation steps a tombstoned topology must survive:
// a retract-only step (the child shares its parent's spans), a sliding
// window that appends and expires at once, an append onto the tombstoned
// result, and two retracts in a row.
func tombstoneSteps(r *rand.Rand) []struct {
	name string
	next func(*graph.Graph) (*graph.Graph, graph.Delta, error)
} {
	retract := func(g *graph.Graph) (*graph.Graph, graph.Delta, error) {
		edges := g.Edges()
		var batch []graph.Edge
		for range 25 {
			if i := r.Intn(len(edges)); g.EdgeAlive(i) {
				batch = append(batch, edges[i])
			}
		}
		return g.Shrink(batch)
	}
	fresh := func(n int) []graph.Edge {
		out := make([]graph.Edge, n)
		for i := range out {
			// IDs past the base graph's add vertices; the rest re-join it.
			out[i] = graph.Edge{Src: graph.VertexID(r.Intn(130)), Dst: graph.VertexID(r.Intn(130))}
		}
		return out
	}
	return []struct {
		name string
		next func(*graph.Graph) (*graph.Graph, graph.Delta, error)
	}{
		{"retract", retract},
		{"slide", func(g *graph.Graph) (*graph.Graph, graph.Delta, error) {
			ng, d := g.SlideWindow(fresh(20), g.NumEdges()/30)
			return ng, d, nil
		}},
		{"append", func(g *graph.Graph) (*graph.Graph, graph.Delta, error) {
			ng, d := g.Grow(fresh(20))
			return ng, d, nil
		}},
		{"retract", retract},
		{"retract twice", retract},
	}
}

// TestTombstonedChildMatchesColdBuild walks a topology through
// tombstoneSteps by ApplyDelta twice — one chain whose parents' frontier
// indexes are built before every step, and one that nothing runs on until
// the end, so its parents never hold one — and holds every child to a cold
// build of the same generation: the tables that leave the process (Tables,
// RawTables, TopologySum), the replica counts, metrics and triangle plan,
// and, for all five served algorithms, the values and every RunStats field,
// run locally, seeded from the parent's answer (cc) and, for the cluster
// entries, through two in-process workers.
func TestTombstonedChildMatchesColdBuild(t *testing.T) {
	pool := startPool(t, 2)
	ctx := context.Background()
	cc, err := algorithms.Lookup("cc")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []partition.Strategy{partition.EdgePartition2D(), partition.RandomVertexCut()} {
		r := rand.New(rand.NewSource(7))
		base := make([]graph.Edge, 600)
		for i := range base {
			base[i] = graph.Edge{Src: graph.VertexID(r.Intn(100)), Dst: graph.VertexID(r.Intn(100))}
		}
		g := graph.FromEdges(base)
		a, err := partition.Assign(g, s, 5)
		if err != nil {
			t.Fatal(err)
		}
		var pg, lazy, cold *pregel.PartitionedGraph
		for _, top := range []**pregel.PartitionedGraph{&pg, &lazy} {
			if *top, err = pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		_, ans, _, err := cc.Resume(ctx, pg, algorithms.ServedParams(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		var dead, ghosts int
		for _, st := range tombstoneSteps(r) {
			label := fmt.Sprintf("%s %s", s.Name(), st.name)
			pregel.IndexFrontiers(pg)
			ng, d, err := st.next(g)
			if err != nil || d.Compacted {
				t.Fatalf("%s: %v (compacted %v)", label, err, d.Compacted)
			}
			na, err := a.Extend(ng, s)
			if err != nil {
				t.Fatal(err)
			}
			remap, err := graph.RemapVertices(d.OldVerts, ng)
			if err != nil {
				t.Fatal(err)
			}
			child, err := pg.ApplyDelta(na, remap)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if lazy, err = lazy.ApplyDelta(na, remap); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if cold, err = pregel.NewPartitionedGraphFromAssignment(na, pregel.BuildOptions{}); err != nil {
				t.Fatal(err)
			}
			if child.FrontierIndexes() != child.NumParts || lazy.FrontierIndexes() != 0 {
				t.Fatalf("%s: %d and %d of %d partitions indexed after the step, want all and none", label, child.FrontierIndexes(), lazy.FrontierIndexes(), child.NumParts)
			}
			checkSameTopology(t, label, child, cold)
			checkSameTopology(t, label+" lazy", lazy, cold)
			checkSameRuns(t, label, pool, child, cold)
			from := &pregel.Parent{Answer: ans, OldLen: d.OldLen, Remap: remap}
			got, next, gotStats, err := cc.Resume(ctx, child, algorithms.ServedParams(0), from)
			if err != nil {
				t.Fatal(err)
			}
			want, _, wantStats, err := cc.Resume(ctx, cold, algorithms.ServedParams(0), from)
			if err != nil {
				t.Fatal(err)
			}
			checkSameRun(t, label+" seeded cc", got, gotStats, want, wantStats)
			for _, part := range child.Parts {
				dead += part.NumSlots() - part.NumEdges()
				ghosts += len(part.LocalVerts) - part.NumLocalVertices()
			}
			g, a, pg, ans = ng, na, child, next
		}
		checkSameRuns(t, s.Name()+" lazy chain", pool, lazy, cold)
		if dead == 0 || ghosts == 0 {
			t.Fatalf("%s: the chain left %d dead slots and %d ghosts: it never exercised a tombstoned span", s.Name(), dead, ghosts)
		}
	}
}

// checkSameRuns runs every served algorithm on got and on want, a cold build
// of the same generation, and the cluster entries on got through pool too:
// values and statistics must match.
func checkSameRuns(t *testing.T, label string, pool *dist.Pool, got, want *pregel.PartitionedGraph) {
	t.Helper()
	ctx := context.Background()
	for _, e := range algorithms.Served() {
		p := algorithms.ServedParams(5)
		vals, stats, err := e.Run(ctx, got, p)
		if err != nil {
			t.Fatal(err)
		}
		wantVals, wantStats, err := e.Run(ctx, want, p)
		if err != nil {
			t.Fatal(err)
		}
		checkSameRun(t, label+" "+e.Name, vals, stats, wantVals, wantStats)
		if e.Vertex == nil {
			continue
		}
		if vals, stats, err = dist.Run(ctx, pool, got, e, p); err != nil {
			t.Fatalf("%s %s distributed: %v", label, e.Name, err)
		}
		checkSameRun(t, label+" "+e.Name+" distributed", vals, stats, wantVals, wantStats)
	}
}

// checkSameTopology requires a tombstoned topology to read, wherever it is
// named or leaves the process, exactly as the cold build does.
func checkSameTopology(t *testing.T, label string, got, want *pregel.PartitionedGraph) {
	t.Helper()
	if !reflect.DeepEqual(got.RawTables(), want.RawTables()) {
		t.Fatalf("%s: RawTables differ from the cold build's", label)
	}
	if idx := []int{got.NumParts - 1, 0}; !reflect.DeepEqual(got.Tables(idx), want.Tables(idx)) {
		t.Fatalf("%s: Tables of a partition subset differ", label)
	}
	if got.TopologySum() != want.TopologySum() {
		t.Fatalf("%s: TopologySum %x, cold build %x", label, got.TopologySum(), want.TopologySum())
	}
	if !slices.Equal(got.ReplicaCounts(), want.ReplicaCounts()) || got.TotalMirrors() != want.TotalMirrors() {
		t.Fatalf("%s: replica counts differ", label)
	}
	if !reflect.DeepEqual(got.Metrics(), want.Metrics()) {
		t.Fatalf("%s: Metrics differ", label)
	}
	for p, part := range got.Parts {
		if lv, _ := part.Live(); !slices.Equal(lv, want.Parts[p].LocalVerts) || part.NumEdges() != want.Parts[p].NumEdges() {
			t.Fatalf("%s: partition %d's live view differs", label, p)
		}
	}
	if !reflect.DeepEqual(got.TrianglePlan(), want.TrianglePlan()) {
		t.Fatalf("%s: triangle plans differ", label)
	}
}

// checkSameRun requires bit-identical values and identical statistics.
func checkSameRun(t *testing.T, label string, got any, gotStats *pregel.RunStats, want any, wantStats *pregel.RunStats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: values differ from the cold build's", label)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("%s: stats differ from the cold build's\n got: %+v\nwant: %+v", label, gotStats, wantStats)
	}
}

// startPool boots n workers behind loopback sockets and returns a pool over
// them.
func startPool(t *testing.T, n int) *dist.Pool {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(dist.NewWorker().Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return dist.NewPool(urls)
}
