package core

import (
	"testing"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/store"
)

func TestProfileFor(t *testing.T) {
	for _, alg := range []string{"pagerank", "cc", "triangles", "sssp"} {
		p, err := ProfileFor(alg)
		if err != nil {
			t.Fatalf("ProfileFor(%q): %v", alg, err)
		}
		if p.Name != alg {
			t.Fatalf("profile name %q != %q", p.Name, alg)
		}
	}
	if _, err := ProfileFor("quicksort"); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestProfileMetrics(t *testing.T) {
	if ProfilePageRank.Metric != "CommCost" || !ProfilePageRank.EdgeBound {
		t.Fatal("PageRank profile should be edge-bound / CommCost")
	}
	if ProfileTR.Metric != "Cut" || ProfileTR.EdgeBound {
		t.Fatal("Triangle profile should be vertex-state-bound / Cut")
	}
}

func TestAdviseLargeDataset(t *testing.T) {
	rec := Advise(ProfilePageRank, GraphFacts{Edges: 5_000_000}, 128, DefaultAdvisorConfig())
	if rec.Strategy.Name() != "2D" {
		t.Fatalf("large dataset: recommended %s, want 2D", rec.Strategy.Name())
	}
	if rec.Metric != "CommCost" {
		t.Fatalf("metric = %s", rec.Metric)
	}
	if rec.Reason == "" {
		t.Fatal("recommendation should carry a reason")
	}
}

func TestAdviseSmallDataset(t *testing.T) {
	rec := Advise(ProfilePageRank, GraphFacts{Edges: 10_000}, 128, DefaultAdvisorConfig())
	if rec.Strategy.Name() != "DC" {
		t.Fatalf("small dataset: recommended %s, want DC", rec.Strategy.Name())
	}
}

func TestAdviseTriangles(t *testing.T) {
	rec := Advise(ProfileTR, GraphFacts{Edges: 5_000_000}, 256, DefaultAdvisorConfig())
	if rec.Metric != "Cut" {
		t.Fatalf("TR advice should compare by Cut, got %s", rec.Metric)
	}
	if rec.Strategy.Name() != "CRVC" {
		t.Fatalf("TR advice = %s, want CRVC", rec.Strategy.Name())
	}
}

func TestAdviseZeroConfigUsesDefaults(t *testing.T) {
	rec := Advise(ProfilePageRank, GraphFacts{Edges: 10_000}, 128, AdvisorConfig{})
	if rec.Strategy == nil {
		t.Fatal("zero config should fall back to defaults")
	}
}

func TestFacts(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}})
	f := Facts(g)
	if f.Edges != 2 || f.IDLocality {
		t.Fatalf("facts = %+v", f)
	}
}

func TestSelectEmpirically(t *testing.T) {
	g, err := gen.Road(gen.RoadConfig{Rows: 20, Cols: 20, EdgeProb: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(store.Config{})
	sel, err := SelectEmpirically(st, g, partition.All(), 16, ProfilePageRank)
	if err != nil {
		t.Fatal(err)
	}
	best, results := sel.Strategy, sel.Results
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6", len(results))
	}
	bestVal := results[best.Name()].CommCost
	for name, m := range results {
		if m.CommCost < bestVal {
			t.Fatalf("strategy %s has lower CommCost (%d) than selected %s (%d)",
				name, m.CommCost, best.Name(), bestVal)
		}
	}
	// Building the winner misses only on the topology: its assignment is
	// the one the selection left in the store.
	misses := st.Stats().Misses
	pg, err := st.Built(g, best, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Misses - misses; got != 1 {
		t.Fatalf("building the winner missed %d times, want 1 (the topology alone)", got)
	}
	if got := pg.Metrics().CommCost; got != bestVal {
		t.Fatalf("built winner CommCost = %d, measured %d", got, bestVal)
	}
}

func TestSelectEmpiricallyErrors(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	if _, err := SelectEmpirically(store.New(store.Config{}), g, nil, 4, ProfilePageRank); err == nil {
		t.Fatal("no candidates should error")
	}
}

func TestDetectIDLocality(t *testing.T) {
	road, err := gen.Road(gen.RoadConfig{Rows: 30, Cols: 30, EdgeProb: 0.4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !DetectIDLocality(road, 60, 0.5) {
		t.Fatal("road network should exhibit ID locality")
	}
	shuffled := gen.Relabel(road, 3)
	if DetectIDLocality(shuffled, 60, 0.5) {
		t.Fatal("relabeled graph should not exhibit ID locality")
	}
	if DetectIDLocality(graph.FromEdges(nil), 60, 0.5) {
		t.Fatal("empty graph has no locality")
	}
}
