package gen

import (
	"testing"
	"testing/quick"

	"cutfit/internal/graph"
)

func TestRMATValidate(t *testing.T) {
	bad := []RMATConfig{
		{Scale: 0, EdgeFactor: 1, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 40, EdgeFactor: 1, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 5, EdgeFactor: 0, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 5, EdgeFactor: 1, A: 0.5, B: 0.5, C: 0.25, D: 0.25}, // sum > 1
		{Scale: 5, EdgeFactor: 1, A: 0.5, B: 0.5, C: 0, D: 0},       // zero quadrant
		{Scale: 5, EdgeFactor: 1, A: 0.25, B: 0.25, C: 0.25, D: 0.25, Noise: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, cfg)
		}
	}
	if err := DefaultRMAT(10, 8, 1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestRMATDeterministicAndSized(t *testing.T) {
	cfg := DefaultRMAT(10, 8, 42)
	a, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("RMAT not deterministic in edge count")
	}
	for i := range a.Edges() {
		if a.Edges()[i] != b.Edges()[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	if a.NumEdges() != 8*1024 {
		t.Fatalf("edges = %d, want %d", a.NumEdges(), 8*1024)
	}
	// All vertex IDs fit in the 2^scale space.
	for _, e := range a.Edges() {
		if e.Src < 0 || e.Src >= 1024 || e.Dst < 0 || e.Dst >= 1024 {
			t.Fatalf("edge %v out of ID space", e)
		}
	}
}

func TestRMATSkewProducesHubs(t *testing.T) {
	g, err := RMAT(DefaultRMAT(12, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	var maxDeg int32
	for _, d := range g.OutDegrees() {
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(maxDeg) < 5*mean {
		t.Fatalf("max degree %d not heavy-tailed (mean %.1f)", maxDeg, mean)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g, err := PreferentialAttachment(500, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 500 {
		t.Fatalf("V = %d, want 500", g.NumVertices())
	}
	if pct := g.SymmetryPct(); pct != 100 {
		t.Fatalf("symmetry = %g, want 100", pct)
	}
	if _, count := g.ConnectedComponents(); count != 1 {
		t.Fatalf("components = %d, want 1", count)
	}
	// m edges per new vertex, both directions stored.
	wantMin := 2 * 3 * (500 - 4)
	if g.NumEdges() < wantMin {
		t.Fatalf("edges = %d, want >= %d", g.NumEdges(), wantMin)
	}
}

func TestPreferentialAttachmentErrors(t *testing.T) {
	if _, err := PreferentialAttachment(0, 1, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := PreferentialAttachment(10, 0, 1); err == nil {
		t.Error("m=0 should error")
	}
	if _, err := PreferentialAttachment(5, 5, 1); err == nil {
		t.Error("m>=n should error")
	}
}

func TestRoadGenerator(t *testing.T) {
	cfg := RoadConfig{Rows: 20, Cols: 25, EdgeProb: 0.4, DiagProb: 0.05, Fragments: 7, Seed: 3}
	g, err := Road(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pct := g.SymmetryPct(); pct != 100 {
		t.Fatalf("symmetry = %g, want 100", pct)
	}
	_, count := g.ConnectedComponents()
	if count != 8 {
		t.Fatalf("components = %d, want 8 (grid + 7 fragments)", count)
	}
	// Mean degree should be road-like (well under 8).
	mean := float64(g.NumEdges()) / float64(g.NumVertices())
	if mean < 1.5 || mean > 6 {
		t.Fatalf("mean directed degree %.2f not road-like", mean)
	}
}

func TestRoadValidate(t *testing.T) {
	bad := []RoadConfig{
		{Rows: 1, Cols: 5, EdgeProb: 0.5},
		{Rows: 5, Cols: 5, EdgeProb: -0.1},
		{Rows: 5, Cols: 5, EdgeProb: 0.5, DiagProb: 2},
		{Rows: 5, Cols: 5, EdgeProb: 0.5, Fragments: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestRoadMainGridConnected(t *testing.T) {
	// Even at low edge probability the backbone keeps the grid connected.
	g, err := Road(RoadConfig{Rows: 12, Cols: 12, EdgeProb: 0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, count := g.ConnectedComponents(); count != 1 {
		t.Fatalf("components = %d, want 1", count)
	}
}

func TestDedup(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 0}})
	d := Dedup(g)
	if d.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", d.NumEdges())
	}
}

func TestDropSelfLoops(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}})
	d := DropSelfLoops(g)
	if d.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", d.NumEdges())
	}
}

func TestSymmetrizeReachesTarget(t *testing.T) {
	for _, target := range []float64{30, 54.34, 75, 100} {
		g, err := RMAT(DefaultRMAT(10, 8, 5))
		if err != nil {
			t.Fatal(err)
		}
		g = DropSelfLoops(Dedup(g))
		sym, err := Symmetrize(g, target, 6)
		if err != nil {
			t.Fatal(err)
		}
		got := sym.SymmetryPct()
		if got < target-1 {
			t.Errorf("target %g%%: got %g%%", target, got)
		}
	}
}

func TestSymmetrizeRejectsBadTarget(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	if _, err := Symmetrize(g, -1, 0); err == nil {
		t.Error("negative target should error")
	}
	if _, err := Symmetrize(g, 101, 0); err == nil {
		t.Error("target > 100 should error")
	}
}

func TestInjectLeavesTarget(t *testing.T) {
	g, err := RMAT(DefaultRMAT(10, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	g = DropSelfLoops(Dedup(g))
	out, err := InjectLeavesTarget(g, 40, 15, 12)
	if err != nil {
		t.Fatal(err)
	}
	zi, zo := out.ZeroDegreePct()
	if zi < 35 || zi > 45 {
		t.Fatalf("zeroIn = %g, want ≈40", zi)
	}
	// zeroOut may already exceed the target naturally; it must be >= the
	// natural floor but the injector must not overshoot much beyond it.
	if zo > 30 {
		t.Fatalf("zeroOut = %g, unexpectedly high", zo)
	}
}

func TestInjectLeavesTargetErrors(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	if _, err := InjectLeavesTarget(g, 60, 50, 1); err == nil {
		t.Error("targets summing over 100 should error")
	}
	if _, err := InjectLeavesTarget(g, -5, 0, 1); err == nil {
		t.Error("negative target should error")
	}
}

func TestConnectSingleComponent(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: 0, Dst: 1}, {Src: 5, Dst: 6}, {Src: 10, Dst: 11},
	})
	c := Connect(g)
	if _, count := c.ConnectedComponents(); count != 1 {
		t.Fatalf("components = %d, want 1", count)
	}
	// Already-connected graphs are returned unchanged.
	c2 := Connect(c)
	if c2.NumEdges() != c.NumEdges() {
		t.Fatal("Connect on connected graph should be a no-op")
	}
}

func TestCloseTrianglesAddsTriangles(t *testing.T) {
	// A star has no triangles but plenty of wedges.
	var edges []graph.Edge
	for i := int64(1); i <= 20; i++ {
		edges = append(edges,
			graph.Edge{Src: 0, Dst: graph.VertexID(i)},
			graph.Edge{Src: graph.VertexID(i), Dst: 0})
	}
	g := graph.FromEdges(edges)
	if g.TotalTriangles() != 0 {
		t.Fatal("setup: star should have no triangles")
	}
	out, err := CloseTriangles(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalTriangles() < 5 {
		t.Fatalf("triangles = %d, want >= 5", out.TotalTriangles())
	}
	if pct := out.SymmetryPct(); pct != 100 {
		t.Fatalf("closure broke symmetry: %g", pct)
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g, err := RMAT(DefaultRMAT(8, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	r := Relabel(g, 99)
	if r.NumEdges() != g.NumEdges() || r.NumVertices() != g.NumVertices() {
		t.Fatal("relabel changed size")
	}
	if r.TotalTriangles() != g.TotalTriangles() {
		t.Fatal("relabel changed triangle count")
	}
	if _, c1 := g.ConnectedComponents(); true {
		if _, c2 := r.ConnectedComponents(); c1 != c2 {
			t.Fatal("relabel changed component count")
		}
	}
}

func TestPairSubsetPreservesSymmetry(t *testing.T) {
	g, err := PreferentialAttachment(300, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := PairSubset(g, 0.6, 22)
	if err != nil {
		t.Fatal(err)
	}
	if pct := sub.SymmetryPct(); pct != 100 {
		t.Fatalf("pair subset broke symmetry: %g%%", pct)
	}
	frac := float64(sub.NumEdges()) / float64(g.NumEdges())
	if frac < 0.5 || frac > 0.7 {
		t.Fatalf("kept fraction %.2f, want ≈0.6", frac)
	}
}

func TestPairSubsetIsSubset(t *testing.T) {
	check := func(seed uint64) bool {
		g, err := RMAT(DefaultRMAT(8, 6, seed))
		if err != nil {
			return false
		}
		sub, err := PairSubset(g, 0.5, seed+1)
		if err != nil {
			return false
		}
		have := map[graph.Edge]int{}
		for _, e := range g.Edges() {
			have[e]++
		}
		for _, e := range sub.Edges() {
			have[e]--
			if have[e] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAddFragments(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	out, err := AddFragments(g, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, count := out.ConnectedComponents(); count != 6 {
		t.Fatalf("components = %d, want 6", count)
	}
	if pct := out.SymmetryPct(); pct < 50 {
		t.Fatalf("fragments should be bidirected, symmetry %g", pct)
	}
}

func TestRMATStreamMatchesRMAT(t *testing.T) {
	cfg := DefaultRMAT(10, 8, 99)
	want, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []graph.Edge
	batches := 0
	if err := RMATStream(cfg, 1000, func(batch []graph.Edge) error {
		streamed = append(streamed, batch...)
		batches++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	we := want.Edges()
	if len(streamed) != len(we) {
		t.Fatalf("streamed %d edges, want %d", len(streamed), len(we))
	}
	for i := range we {
		if streamed[i] != we[i] {
			t.Fatalf("edge %d: streamed %v, want %v", i, streamed[i], we[i])
		}
	}
	if wantBatches := (len(we) + 999) / 1000; batches != wantBatches {
		t.Fatalf("delivered %d batches, want %d", batches, wantBatches)
	}

	bg, err := RMATBlocks(cfg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bg.BlockBacked() {
		t.Fatal("RMATBlocks graph not block-backed")
	}
	if bg.Fingerprint() != want.Fingerprint() {
		t.Fatalf("block graph fingerprint %016x differs from dense %016x", bg.Fingerprint(), want.Fingerprint())
	}
}
