package cutfit_test

import (
	"context"
	"strings"
	"testing"

	"cutfit"
	"cutfit/internal/algorithms"
)

// runAs is cutfit.Run with the values' type asserted: T is the type the
// algorithm returns.
func runAs[T any](ctx context.Context, pg *cutfit.PartitionedGraph, alg string, p cutfit.Params) (T, *cutfit.RunStats, error) {
	v, stats, err := cutfit.Run(ctx, pg, alg, p)
	typed, _ := v.(T)
	return typed, stats, err
}

// TestPublicAPIEndToEnd drives the whole public surface: load a graph,
// partition it with every strategy, measure, and run all four algorithms.
func TestPublicAPIEndToEnd(t *testing.T) {
	in := strings.NewReader("0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n")
	g, err := cutfit.LoadEdgeList(in)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 6 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}

	ctx := context.Background()
	se := cutfit.NewSession(cutfit.SessionOptions{})
	for _, s := range cutfit.Strategies() {
		m, err := se.Measure(g, s, 4)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if m.NonCut+m.Cut != int64(g.NumVertices()) {
			t.Fatalf("%s: metric identity violated", s.Name())
		}
		pg, err := se.Partition(g, s, 4)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		ranks, _, err := runAs[[]float64](ctx, pg, "pagerank", cutfit.ServedParams(5))
		if err != nil {
			t.Fatalf("%s pagerank: %v", s.Name(), err)
		}
		if len(ranks) != g.NumVertices() {
			t.Fatalf("%s: ranks = %d", s.Name(), len(ranks))
		}

		labels, _, err := runAs[[]cutfit.VertexID](ctx, pg, "cc", cutfit.ServedParams(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range labels {
			if l != 0 {
				t.Fatalf("%s: connected graph should collapse to label 0, got %d", s.Name(), l)
			}
		}

		tris, _, err := runAs[[]int64](ctx, pg, "triangles", cutfit.Params{})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, c := range tris {
			total += c
		}
		if total/3 != 2 { // triangles {0,1,2} and {2,3,4}
			t.Fatalf("%s: triangles = %d, want 2", s.Name(), total/3)
		}

		dists, _, err := runAs[cutfit.HopTable](ctx, pg, "sssp", cutfit.Params{})
		if err != nil {
			t.Fatal(err)
		}
		i4, _ := g.Index(4)
		if d := dists.Row(int(i4))[0]; dists.Landmarks[0] != 0 || d != 2 { // 4 -> 2 -> 0
			t.Fatalf("%s: dist(4, landmark %d) = %d, want dist(4, 0) = 2", s.Name(), dists.Landmarks[0], d)
		}
		hops, _, err := runAs[cutfit.HopTable](ctx, pg, "sssp", cutfit.Params{Landmarks: []cutfit.VertexID{0, 99}})
		if err != nil {
			t.Fatal(err)
		}
		if row := hops.Row(int(i4)); row[0] != 2 || row[1] != cutfit.Unreached {
			t.Fatalf("%s: hop distances of 4 to {0, absent 99} = %v, want [2 Unreached]", s.Name(), row)
		}
	}
}

func TestStrategyByName(t *testing.T) {
	s, err := cutfit.StrategyByName("2D")
	if err != nil || s.Name() != "2D" {
		t.Fatalf("StrategyByName: %v", err)
	}
	if _, err := cutfit.StrategyByName("3D"); err == nil {
		t.Fatal("unknown strategy should error")
	}
	if n := len(cutfit.ExtendedStrategies()); n != 8 {
		t.Fatalf("extended strategies = %d, want 8", n)
	}
}

func TestAdvisorSurface(t *testing.T) {
	p, err := cutfit.ProfileFor("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	g := cutfit.FromEdges([]cutfit.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	se := cutfit.NewSession(cutfit.SessionOptions{})
	if rec := se.Advise(g, p, 256); rec.Strategy.Name() != "DC" || rec.Metric != "CommCost" {
		t.Fatalf("advice = %s (%s), want DC (CommCost) on a small graph", rec.Strategy.Name(), rec.Metric)
	}
	sel, err := se.Select(g, cutfit.Strategies(), 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Strategy == nil || len(sel.Results) != 6 {
		t.Fatalf("empirical selection: %v, %d results", sel.Strategy, len(sel.Results))
	}
}

func TestDatasetsSurface(t *testing.T) {
	specs := cutfit.Datasets()
	if len(specs) != 9 {
		t.Fatalf("datasets = %d, want 9", len(specs))
	}
	spec, err := cutfit.DatasetByName("youtube")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.BuildCached()
	if err != nil {
		t.Fatal(err)
	}
	if g.SymmetryPct() != 100 {
		t.Fatal("youtube analog should be undirected")
	}
}

func TestExtendedAlgorithmsSurface(t *testing.T) {
	ctx := context.Background()
	// Two triangles sharing vertex 2 — a connected, clustered shape.
	g := cutfit.FromEdges([]cutfit.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 1},
		{Src: 2, Dst: 0}, {Src: 0, Dst: 2},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 2},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 3},
		{Src: 4, Dst: 2}, {Src: 2, Dst: 4},
	})
	pg, err := cutfit.NewSession(cutfit.SessionOptions{}).Partition(g, cutfit.HybridCut(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	p := cutfit.ServedParams(0)
	p.Tol = 1e-6
	ranks, stats, err := runAs[[]float64](ctx, pg, "dynamicpr", p)
	if err != nil || !stats.Converged {
		t.Fatalf("dynamic PR: %v converged=%v", err, stats != nil && stats.Converged)
	}
	if len(ranks) != 5 {
		t.Fatalf("ranks = %d", len(ranks))
	}
}

// TestRunRefusesBeforeRunning: cutfit.Run names the served algorithms when
// it does not know one, and an algorithm refuses parameters it cannot run
// with, both before the engine starts.
func TestRunRefusesBeforeRunning(t *testing.T) {
	ctx := context.Background()
	g := cutfit.FromEdges([]cutfit.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	pg, err := cutfit.NewSession(cutfit.SessionOptions{}).Partition(g, cutfit.EdgePartition2D(), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := cutfit.Run(ctx, pg, "nope", cutfit.ServedParams(5))
	if err == nil || stats != nil {
		t.Fatalf("unknown algorithm: err %v, stats %v", err, stats)
	}
	for _, e := range algorithms.Served() {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("error %q does not list %s", err, e.Name)
		}
	}
	if _, stats, err := cutfit.Run(ctx, pg, "pagerank", cutfit.ServedParams(0)); err == nil || stats != nil {
		t.Fatalf("pagerank for zero iterations: err %v, stats %v", err, stats)
	}
}

func TestRangeCutSurface(t *testing.T) {
	g := cutfit.FromEdges([]cutfit.Edge{{Src: 0, Dst: 1}, {Src: 9, Dst: 8}})
	m, err := cutfit.NewSession(cutfit.SessionOptions{}).Measure(g, cutfit.RangeCut(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cut != 0 {
		t.Fatalf("range on two distant pairs should cut nothing, Cut=%d", m.Cut)
	}
}
