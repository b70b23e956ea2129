package cutfit_test

import (
	"context"
	"strings"
	"testing"

	"cutfit"
)

// TestPublicAPIEndToEnd drives the whole public surface: load a graph,
// partition it with every strategy, measure, run all four algorithms, and
// simulate cluster time.
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
	for _, s := range cutfit.Strategies() {
		m, err := cutfit.Measure(g, s, 4)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if m.NonCut+m.Cut != int64(g.NumVertices()) {
			t.Fatalf("%s: metric identity violated", s.Name())
		}
		pg, err := cutfit.Partition(g, s, 4)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		ranks, stats, err := cutfit.RunPageRank(ctx, pg, 5)
		if err != nil {
			t.Fatalf("%s pagerank: %v", s.Name(), err)
		}
		if len(ranks) != g.NumVertices() {
			t.Fatalf("%s: ranks = %d", s.Name(), len(ranks))
		}
		b, err := cutfit.ConfigI().Simulate(stats, cutfit.EstimateGraphBytes(g.NumEdges()))
		if err != nil {
			t.Fatal(err)
		}
		if b.TotalSecs() <= 0 {
			t.Fatalf("%s: non-positive simulated time", s.Name())
		}

		labels, _, err := cutfit.RunConnectedComponents(ctx, pg, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range labels {
			if l != 0 {
				t.Fatalf("%s: connected graph should collapse to label 0, got %d", s.Name(), l)
			}
		}

		tris, _, err := cutfit.RunTriangleCount(ctx, pg)
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

		dists, _, err := cutfit.RunShortestPaths(ctx, pg, []cutfit.VertexID{0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		i4, _ := g.Index(4)
		if d := dists[i4][0]; d != 2 { // 4 -> 2 -> 0
			t.Fatalf("%s: dist(4,0) = %d, want 2", s.Name(), d)
		}
		hops, _, err := cutfit.RunHopDistances(ctx, pg, []cutfit.VertexID{0, 99}, 0)
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
	rec := cutfit.Advise(p, cutfit.GraphFacts{Edges: 10_000_000}, 256)
	if rec.Strategy.Name() != "2D" {
		t.Fatalf("advice = %s", rec.Strategy.Name())
	}
	g := cutfit.FromEdges([]cutfit.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	best, results, err := cutfit.SelectEmpirically(g, cutfit.Strategies(), 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || len(results) != 6 {
		t.Fatalf("empirical selection: %v, %d results", best, len(results))
	}
	if f := cutfit.Facts(g); f.Vertices != 3 {
		t.Fatalf("facts = %+v", f)
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

func TestClusterConfigsSurface(t *testing.T) {
	if cutfit.ConfigI().NumPartitions != 128 || cutfit.ConfigII().NumPartitions != 256 {
		t.Fatal("paper configs wrong")
	}
	if cutfit.ConfigIII().NetworkGbps != 40 {
		t.Fatal("config iii should be 40 Gb/s")
	}
	if cutfit.ConfigIV().StorageMBps <= cutfit.ConfigIII().StorageMBps {
		t.Fatal("config iv should have faster storage")
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
	pg, err := cutfit.Partition(g, cutfit.HybridCut(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	ranks, stats, err := cutfit.RunDynamicPageRank(ctx, pg, 1e-6, 0)
	if err != nil || !stats.Converged {
		t.Fatalf("dynamic PR: %v converged=%v", err, stats != nil && stats.Converged)
	}
	if len(ranks) != 5 {
		t.Fatalf("ranks = %d", len(ranks))
	}
	labels, _, err := cutfit.RunLabelPropagation(ctx, pg, 3)
	if err != nil || len(labels) != 5 {
		t.Fatalf("label propagation: %v, %d labels", err, len(labels))
	}
	member, _, err := cutfit.RunKCoreMembership(ctx, pg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range member {
		if !ok {
			t.Fatalf("vertex %d should be in the 2-core", i)
		}
	}
	cores := cutfit.KCoreNumbers(g)
	for i, c := range cores {
		if c != 2 {
			t.Fatalf("core(%d) = %d, want 2", i, c)
		}
	}
}

func TestPredictorSurface(t *testing.T) {
	g := cutfit.FromEdges([]cutfit.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
		{Src: 0, Dst: 2}, {Src: 1, Dst: 3},
	})
	times := map[string]float64{}
	for _, s := range cutfit.Strategies() {
		m, err := cutfit.Measure(g, s, 3)
		if err != nil {
			t.Fatal(err)
		}
		times[s.Name()] = 1 + 0.001*float64(m.CommCost)
	}
	pred, results, err := cutfit.TrainPredictor(g, cutfit.Strategies(), 3, cutfit.ProfilePageRank, times)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := pred.RankByPrediction(results)
	if err != nil || len(ranked) != 6 {
		t.Fatalf("rank: %v, %v", ranked, err)
	}
}

func TestGranularityAdviceSurface(t *testing.T) {
	a := cutfit.AdviseGranularity(cutfit.ProfileConnectedComponents, cutfit.GraphFacts{Edges: 5_000_000}, 128, 256)
	if a.NumPartitions != 256 || a.Reason == "" {
		t.Fatalf("advice = %+v", a)
	}
	b := cutfit.AdviseGranularity(cutfit.ProfilePageRank, cutfit.GraphFacts{Edges: 5_000_000}, 128, 256)
	if b.NumPartitions != 128 {
		t.Fatalf("PR advice = %+v", b)
	}
}

func TestRangeCutSurface(t *testing.T) {
	g := cutfit.FromEdges([]cutfit.Edge{{Src: 0, Dst: 1}, {Src: 9, Dst: 8}})
	m, err := cutfit.Measure(g, cutfit.RangeCut(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cut != 0 {
		t.Fatalf("range on two distant pairs should cut nothing, Cut=%d", m.Cut)
	}
}
