package dist

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"net/http/httptest"
	"reflect"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/rng"
	"cutfit/internal/testutil"
)

// startCluster boots n workers on real 127.0.0.1 sockets and returns a
// pool over them. Each worker is a full HTTP stack — frames cross the
// loopback wire exactly as they would a network.
func startCluster(t *testing.T, n int) (*Pool, []*Worker) {
	t.Helper()
	workers := make([]*Worker, n)
	urls := make([]string, n)
	for i := range workers {
		workers[i] = NewWorker()
		srv := httptest.NewServer(workers[i].Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return NewPool(urls), workers
}

func randomGraph(seed uint64, maxV, maxE int) *graph.Graph {
	r := rng.New(seed)
	nv := 2 + r.Intn(maxV)
	ne := 1 + r.Intn(maxE)
	edges := make([]graph.Edge, ne)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(r.Intn(nv)),
			Dst: graph.VertexID(r.Intn(nv)),
		}
	}
	return graph.FromEdges(edges)
}

// hubAndChain is the structured family: a star whose hub feeds a long
// chain, giving both a high-degree vertex and a deep propagation path.
func hubAndChain(spokes, chain int) *graph.Graph {
	var edges []graph.Edge
	for i := 1; i <= spokes; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(i)})
	}
	prev := graph.VertexID(1)
	for i := 0; i < chain; i++ {
		next := graph.VertexID(spokes + 1 + i)
		edges = append(edges, graph.Edge{Src: prev, Dst: next})
		prev = next
	}
	return graph.FromEdges(edges)
}

// vertexOf returns the typed vertex program of a cluster entry of the table.
func vertexOf[V, M any](t testing.TB, name string) algorithms.Vertex[V, M] {
	t.Helper()
	e, err := algorithms.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return e.Vertex.(algorithms.Vertex[V, M])
}

// runPageRank is a distributed static PageRank with the served reset
// probability: the run the transport, cache and failure tests drive.
func runPageRank(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, iters int) ([]float64, *pregel.RunStats, error) {
	e, err := algorithms.Lookup("pagerank")
	if err != nil {
		return nil, nil, err
	}
	vals, stats, err := Run(ctx, pool, pg, e, algorithms.ServedParams(iters))
	ranks, _ := vals.([]float64)
	return ranks, stats, err
}

func mustPartition(t testing.TB, g *graph.Graph, s partition.Strategy, parts int) *pregel.PartitionedGraph {
	t.Helper()
	a, err := partition.Assign(g, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// assertBitEqualF64 requires exact float64 bit equality — the distributed
// contract is bit-identical, not approximately-equal.
func assertBitEqualF64(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: vertex %d: got %x (%g), want %x (%g)",
				label, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// assertValuesEqual requires a distributed run's values to be the local
// run's, bit for bit where they are floats.
func assertValuesEqual(t *testing.T, label string, got, want any) {
	t.Helper()
	if w, ok := want.([]float64); ok {
		g, _ := got.([]float64)
		assertBitEqualF64(t, label, g, w)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: distributed values diverge from local", label)
	}
}

// servedRuns are the parameter sets the suites run every cluster entry of
// the served-algorithm table with — capped at a few rounds, and to
// convergence — less those an entry's own check refuses (pagerank needs a
// cap).
var servedRuns = []algorithms.Params{algorithms.ServedParams(5), algorithms.ServedParams(0)}

// forEachClusterRun calls fn for every cluster entry and every parameter set
// of servedRuns the entry accepts.
func forEachClusterRun(fn func(label string, e *algorithms.Entry, p algorithms.Params)) {
	for _, e := range algorithms.ClusterServed() {
		for _, p := range servedRuns {
			if e.Check(p) == nil {
				fn(fmt.Sprintf("%s iters=%d", e.Name, p.Iters), e, p)
			}
		}
	}
}

// checkMatchesLocal runs e distributed and in process on pg and requires
// identical values and identical statistics, every field.
func checkMatchesLocal(t *testing.T, label string, pool *Pool, pg *pregel.PartitionedGraph, e *algorithms.Entry, p algorithms.Params) {
	t.Helper()
	want, wantStats, err := e.Run(context.Background(), pg, p)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := Run(context.Background(), pool, pg, e, p)
	if err != nil {
		t.Fatalf("dist %s: %v", label, err)
	}
	assertValuesEqual(t, label, got, want)
	assertStatsEqual(t, label, gotStats, wantStats)
}

func assertStatsEqual(t *testing.T, label string, got, want *pregel.RunStats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: distributed stats diverge from local\n got: %+v\nwant: %+v", label, got, want)
	}
}

// parallelShapes are the (GOMAXPROCS, coordinator merge shards) pairs the
// equivalence suites run under: everything on one goroutine, everything on
// eight, and the two mixed. GOMAXPROCS sizes the in-process workers' scans
// and the local engine alike; the merge shards go through Pool.mergeShards.
var parallelShapes = [][2]int{{1, 1}, {8, 8}, {1, 8}, {8, 1}}

// TestDistributedEquivalence is the core contract: every entry of the
// served-algorithm table that carries codecs, over both graph families and
// several partition counts,
// produces bit-identical values AND identical engine statistics whether
// the supersteps run in-process or across one, two or three workers on
// loopback sockets — workers scanning on one goroutine or eight, the
// coordinator merging on one or eight, and (with more than one worker) some
// changed vertices having no mirror on one of them.
func TestDistributedEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random":   randomGraph(42, 60, 300),
		"hubchain": hubAndChain(12, 20),
	}
	strat := partition.RandomVertexCut()
	sawUnmirrored := false
	for _, shape := range parallelShapes {
		testutil.SetGOMAXPROCS(t, shape[0])
		for _, W := range []int{1, 2, 3} {
			pool, _ := startCluster(t, W)
			pool.mergeShards = shape[1]
			for gname, g := range graphs {
				for _, parts := range []int{1, 4, 7} {
					pg := mustPartition(t, g, strat, parts)
					label := fmt.Sprintf("%s W=%d parts=%d scan=%d merge=%d", gname, W, parts, shape[0], shape[1])

					forEachClusterRun(func(run string, e *algorithms.Entry, p algorithms.Params) {
						checkMatchesLocal(t, run+"/"+label, pool, pg, e, p)
					})

					cc := vertexOf[graph.VertexID, graph.VertexID](t, "cc")
					prog := cc.Program(algorithms.Params{}, nil)
					for _, mirrored := range newExchanger(pool, pg, "", &prog, cc.VC, cc.MC).mirrored {
						n := 0
						for _, w := range mirrored {
							n += bits.OnesCount64(w)
						}
						sawUnmirrored = sawUnmirrored || (parts >= W && n < g.NumVertices())
					}
				}
			}
		}
	}
	if !sawUnmirrored {
		t.Error("no configuration had a worker that owns partitions yet mirrors only some of the vertices")
	}
}

// TestDistributedGenerations grows and then shrinks a graph, running
// distributed after every generation step; each generation ships exactly one
// whole shard per worker, the later runs on it reuse them, and every run must
// stay bit-identical to the local engine, values and statistics, on one to
// three workers under every parallel shape.
func TestDistributedGenerations(t *testing.T) {
	for _, shape := range parallelShapes {
		testutil.SetGOMAXPROCS(t, shape[0])
		for _, W := range []int{1, 2, 3} {
			testGenerations(t, W, shape[1])
		}
	}
}

func testGenerations(t *testing.T, W, mergeShards int) {
	pool, _ := startCluster(t, W)
	pool.mergeShards = mergeShards
	strat := partition.RandomVertexCut()
	const parts = 5

	check := func(label string, pg *pregel.PartitionedGraph) {
		t.Helper()
		label = fmt.Sprintf("%s W=%d merge=%d", label, W, mergeShards)
		fullBefore := cShards.With("full").Value()
		forEachClusterRun(func(run string, e *algorithms.Entry, p algorithms.Params) {
			checkMatchesLocal(t, run+"/"+label, pool, pg, e, p)
		})
		if got := cShards.With("full").Value() - fullBefore; got != int64(W) {
			t.Errorf("%s: generation shipped %d full shards, want %d (one per worker)", label, got, W)
		}
	}

	g1 := randomGraph(7, 50, 250)
	pg1 := mustPartition(t, g1, strat, parts)
	check("base", pg1)

	// Grow: append a batch touching both existing and brand-new vertices.
	nv := int32(g1.NumVertices())
	batch := []graph.Edge{
		{Src: 0, Dst: graph.VertexID(nv + 1)},
		{Src: graph.VertexID(nv + 1), Dst: graph.VertexID(nv + 2)},
		{Src: graph.VertexID(nv + 2), Dst: 0},
		{Src: 1, Dst: graph.VertexID(nv + 3)},
	}
	g2, _ := g1.Grow(batch)
	check("grown", mustPartition(t, g2, strat, parts))

	// Shrink: retire the oldest quarter of the edge window.
	g3, _ := g2.SlideWindow(nil, g2.NumEdges()/4)
	check("shrunk", mustPartition(t, g3, strat, parts))
}

// TestShardReuse verifies that re-running on an unchanged topology ships
// nothing: the second run reuses the worker-resident shard.
func TestShardReuse(t *testing.T) {
	ctx := context.Background()
	pool, _ := startCluster(t, 2)
	pg := mustPartition(t, hubAndChain(8, 10), partition.RandomVertexCut(), 4)

	if _, _, err := runPageRank(ctx, pool, pg, 3); err != nil {
		t.Fatal(err)
	}
	reusedBefore := cShards.With("reused").Value()
	fullBefore := cShards.With("full").Value()
	if _, _, err := runPageRank(ctx, pool, pg, 3); err != nil {
		t.Fatal(err)
	}
	if got := cShards.With("reused").Value(); got != reusedBefore+2 {
		t.Fatalf("second run reused %d shards, want 2", got-reusedBefore)
	}
	if got := cShards.With("full").Value(); got != fullBefore {
		t.Fatalf("second run shipped %d full shards, want 0", got-fullBefore)
	}
}

// TestWorkerEvictionRecovery kills a worker's shard cache between runs
// (simulating a worker restart); RunStart's 404 must trigger a full
// re-ship and the run must still succeed.
func TestWorkerEvictionRecovery(t *testing.T) {
	ctx := context.Background()
	pool, workers := startCluster(t, 2)
	pg := mustPartition(t, randomGraph(11, 40, 160), partition.RandomVertexCut(), 4)

	want, _, err := algorithms.PageRank(ctx, pg, 4, algorithms.DefaultResetProb)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runPageRank(ctx, pool, pg, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqualF64(t, "before restart", got, want)

	// Wipe worker 0's state behind the coordinator's back.
	workers[0].mu.Lock()
	workers[0].shards = make(map[string]*workerShard)
	workers[0].order = nil
	workers[0].mu.Unlock()

	got, _, err = runPageRank(ctx, pool, pg, 4)
	if err != nil {
		t.Fatalf("run after worker wipe: %v", err)
	}
	assertBitEqualF64(t, "after restart", got, want)
}
