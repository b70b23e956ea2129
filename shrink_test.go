package cutfit_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"cutfit"
	"cutfit/internal/gen"
)

// retractBatch picks up to n distinct live edge positions of g at random
// and returns their edge values — a retraction batch for RemoveEdges.
// Positions holding the same edge value contribute multiplicity, so the
// batch always nets exactly min(n, live) retractions.
func retractBatch(r *rand.Rand, g *cutfit.Graph, n int) []cutfit.Edge {
	live := make([]int, 0, g.NumLiveEdges())
	for i := 0; i < g.NumEdges(); i++ {
		if g.EdgeAlive(i) {
			live = append(live, i)
		}
	}
	r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if n > len(live) {
		n = len(live)
	}
	edges := g.Edges()
	out := make([]cutfit.Edge, n)
	for i := 0; i < n; i++ {
		out[i] = edges[live[i]]
	}
	return out
}

// TestSessionRemoveEquivalence is the retraction half of the delta
// equivalence suite: shrinking a served graph in K random batches — running
// algorithms between batches — must leave the session serving artifacts
// bit-identical to a cold session computing the same final generation from
// scratch: same assignment PIDs, same metric set, same PageRank and CC
// results. Runs under -race via make race.
func TestSessionRemoveEquivalence(t *testing.T) {
	const parts = 16
	ctx := context.Background()
	mustStrategy := func(name string) cutfit.Strategy {
		s, err := cutfit.StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	strategies := []cutfit.Strategy{
		cutfit.EdgePartition2D(),
		cutfit.SourceCut(),
		mustStrategy("Greedy"),
		mustStrategy("HDRF"),
		mustStrategy("Hybrid:8"),
	}
	for _, s := range strategies {
		se := cutfit.NewSession(cutfit.SessionOptions{})
		g := cutfit.FromEdges(appendTestEdges(5, 300, 3000))
		if _, err := se.Run(ctx, g, s, parts, "pagerank", 5); err != nil {
			t.Fatalf("%s: warm run: %v", s.Name(), err)
		}
		r := rand.New(rand.NewSource(99))
		for step := 0; step < 4; step++ {
			// 4 × 120 = 480 tombstones, safely under the compaction
			// threshold (a quarter of 3000) so every step patches.
			batch := retractBatch(r, g, 120)
			ng, err := se.RemoveEdges(g, batch)
			if err != nil {
				t.Fatalf("%s step %d: %v", s.Name(), step, err)
			}
			if ng == g {
				t.Fatalf("%s step %d: batch netted zero retractions", s.Name(), step)
			}
			g = ng
			if _, err := se.Run(ctx, g, s, parts, "dynamicpr", 0); err != nil {
				t.Fatalf("%s step %d: run between batches: %v", s.Name(), step, err)
			}
		}
		if g.NumDeadEdges() != 480 {
			t.Fatalf("%s: %d tombstones after 4 batches, want 480", s.Name(), g.NumDeadEdges())
		}
		if se.CacheStats().DeltaDerived == 0 {
			t.Fatalf("%s: shrinking session never exercised the delta chain", s.Name())
		}

		// Cold reference session over the same final generation.
		ref := cutfit.NewSession(cutfit.SessionOptions{})
		a, err := se.Assignment(g, s, parts)
		if err != nil {
			t.Fatal(err)
		}
		wantA, err := ref.Assignment(g, s, parts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.PIDs, wantA.PIDs) {
			t.Fatalf("%s: shrunk assignment differs from cold computation", s.Name())
		}
		m, err := se.Measure(g, s, parts)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := ref.Measure(g, s, parts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, wantM) {
			t.Fatalf("%s: shrunk metrics differ:\n got %+v\nwant %+v", s.Name(), m, wantM)
		}
		pg, err := se.Partition(g, s, parts)
		if err != nil {
			t.Fatal(err)
		}
		wantPG, err := ref.Partition(g, s, parts)
		if err != nil {
			t.Fatal(err)
		}
		ranks, _, err := runAs[[]float64](ctx, pg, "pagerank", cutfit.ServedParams(8))
		if err != nil {
			t.Fatal(err)
		}
		wantRanks, _, err := runAs[[]float64](ctx, wantPG, "pagerank", cutfit.ServedParams(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ranks, wantRanks) {
			t.Fatalf("%s: PageRank over patched shrunk topology differs", s.Name())
		}
		cc, _, err := runAs[[]cutfit.VertexID](ctx, pg, "cc", cutfit.ServedParams(0))
		if err != nil {
			t.Fatal(err)
		}
		wantCC, _, err := runAs[[]cutfit.VertexID](ctx, wantPG, "cc", cutfit.ServedParams(0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cc, wantCC) {
			t.Fatalf("%s: CC over patched shrunk topology differs", s.Name())
		}
	}
}

// TestSessionRemoveCompactionServesFresh: pushing tombstones past the
// compaction threshold severs the delta chain by design — the session must
// transparently compute the compacted generation's artifacts from scratch
// (correct, just cold), never error or serve stale positions.
func TestSessionRemoveCompactionServesFresh(t *testing.T) {
	const parts = 8
	ctx := context.Background()
	s := cutfit.EdgePartition2D()
	se := cutfit.NewSession(cutfit.SessionOptions{})
	g := cutfit.FromEdges(appendTestEdges(6, 100, 1000))
	if _, err := se.Run(ctx, g, s, parts, "pagerank", 3); err != nil {
		t.Fatal(err)
	}
	// Retract 30% in one batch: over the quarter threshold, so the step
	// compacts.
	r := rand.New(rand.NewSource(4))
	ng, err := se.RemoveEdges(g, retractBatch(r, g, 300))
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumDeadEdges() != 0 || ng.NumEdges() != 700 {
		t.Fatalf("expected a compacted generation (0 tombstones, 700 edges), got %d/%d", ng.NumDeadEdges(), ng.NumEdges())
	}
	if _, err := se.Run(ctx, ng, s, parts, "pagerank", 3); err != nil {
		t.Fatalf("run on compacted generation: %v", err)
	}
	ref := cutfit.NewSession(cutfit.SessionOptions{})
	m, err := se.Measure(ng, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	wantM, err := ref.Measure(ng, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, wantM) {
		t.Fatal("metrics of compacted generation differ from cold computation")
	}
}

// TestEmptyBatchMintsNoGeneration pins the no-op contract for every
// generation-step method: an empty (or all-surplus) batch returns the
// parent graph itself, minting no version — so serving the "new" graph
// afterwards is all cache hits, zero new misses.
func TestEmptyBatchMintsNoGeneration(t *testing.T) {
	s := cutfit.EdgePartition2D()
	se := cutfit.NewSession(cutfit.SessionOptions{})
	g := cutfit.FromEdges(appendTestEdges(7, 50, 400))
	if _, err := se.Measure(g, s, 8); err != nil {
		t.Fatal(err)
	}
	before := se.CacheStats()

	if ng, err := se.AppendEdges(g, nil); err != nil || ng != g {
		t.Fatalf("AppendEdges(nil) = (%p, %v), want the parent back", ng, err)
	}
	if ng, err := se.RemoveEdges(g, nil); err != nil || ng != g {
		t.Fatalf("RemoveEdges(nil) = (%p, %v), want the parent back", ng, err)
	}
	if ng, err := se.SlideWindow(g, nil, 0); err != nil || ng != g {
		t.Fatalf("SlideWindow(nil, 0) = (%p, %v), want the parent back", ng, err)
	}
	if ng, d := g.Grow(nil); ng != g || d.New != d.Old {
		t.Fatal("Grow(nil) minted a generation")
	}

	// All-surplus retraction: removing an already-removed value nets zero.
	victim := g.Edges()[0]
	sg, err := se.RemoveEdges(g, []cutfit.Edge{victim})
	if err != nil {
		t.Fatal(err)
	}
	// appendTestEdges draws from a tiny early ID span, so the first edge
	// value may repeat; retract surplus copies until none are live.
	for {
		ng, err := se.RemoveEdges(sg, []cutfit.Edge{victim})
		if err != nil {
			t.Fatal(err)
		}
		if ng == sg {
			break
		}
		sg = ng
	}

	if _, err := se.Measure(g, s, 8); err != nil {
		t.Fatal(err)
	}
	after := se.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("no-op generation steps caused %d new cache misses", after.Misses-before.Misses)
	}
	if after.Hits == before.Hits {
		t.Fatal("serving the parent after no-op steps should hit the cache")
	}
}

// TestTrianglesOnRetractedGraph is the regression for Triangle Count on a
// graph carrying tombstones, which used to index past the partitions' live
// edge lists and panic: after a retraction the patched topology and a cold
// session building the same tombstoned generation from scratch must both
// count the graph oracle's total, with identical run statistics.
func TestTrianglesOnRetractedGraph(t *testing.T) {
	const parts = 16
	ctx := context.Background()
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := cutfit.EdgePartition2D()
	se := cutfit.NewSession(cutfit.SessionOptions{})
	rep, err := se.Run(ctx, g, s, parts, "triangles", 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.TotalTriangles(); rep.Triangles != want {
		t.Fatalf("before retraction: %d triangles, oracle %d", rep.Triangles, want)
	}

	var batch []cutfit.Edge
	for i, e := range g.Edges() {
		if i%7 == 0 {
			batch = append(batch, e)
		}
	}
	ng, err := se.RemoveEdges(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumDeadEdges() == 0 {
		t.Fatal("retraction compacted: the test needs tombstones")
	}
	want := ng.TotalTriangles()
	if want == g.TotalTriangles() {
		t.Fatal("retraction removed no triangle")
	}

	patched, err := se.Run(ctx, ng, s, parts, "triangles", 0)
	if err != nil {
		t.Fatalf("patched topology: %v", err)
	}
	if se.CacheStats().DeltaDerived == 0 {
		t.Fatal("the retraction never exercised the delta chain")
	}
	cold, err := cutfit.NewSession(cutfit.SessionOptions{}).Run(ctx, ng, s, parts, "triangles", 0)
	if err != nil {
		t.Fatalf("cold build of the tombstoned graph: %v", err)
	}
	if patched.Triangles != want || cold.Triangles != want {
		t.Fatalf("triangles: patched %d, cold %d, oracle %d", patched.Triangles, cold.Triangles, want)
	}
	if !reflect.DeepEqual(patched, cold) {
		t.Fatalf("patched and cold reports differ:\n got %+v\nwant %+v", patched, cold)
	}
}
