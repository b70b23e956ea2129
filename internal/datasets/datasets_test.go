package datasets

import (
	"testing"
)

func TestTinySuiteBuilds(t *testing.T) {
	for _, spec := range TinySuite() {
		g, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", spec.Name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
}

func TestTinySuiteProperties(t *testing.T) {
	for _, spec := range TinySuite() {
		g, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		sym := g.SymmetryPct()
		if !spec.Directed && sym != 100 {
			t.Errorf("%s: undirected analog has symmetry %g", spec.Name, sym)
		}
		if spec.Directed && sym > 90 {
			t.Errorf("%s: directed analog has symmetry %g", spec.Name, sym)
		}
		if spec.Road {
			if tri := g.TotalTriangles(); tri > int64(g.NumVertices()/5) {
				t.Errorf("%s: road analog too dense in triangles (%d)", spec.Name, tri)
			}
		}
	}
}

func TestByName(t *testing.T) {
	spec, err := ByName("orkut")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "orkut" || !spec.Large {
		t.Fatalf("spec = %+v", spec)
	}
	if _, err := ByName("friendster"); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func TestNamesOrderMatchesPaper(t *testing.T) {
	want := []string{
		"roadnet-pa", "youtube", "roadnet-tx", "pocek", "roadnet-ca",
		"orkut", "soclivejournal", "follow-jul", "follow-dec",
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() holds %d datasets, want %d", len(suite), len(want))
	}
	for i := range want {
		if suite[i].Name != want[i] {
			t.Fatalf("Suite()[%d] = %q, want %q", i, suite[i].Name, want[i])
		}
	}
}

func TestBuildCachedReturnsSameInstance(t *testing.T) {
	spec, err := ByName("roadnet-pa")
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.BuildCached()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.BuildCached()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("BuildCached should memoize")
	}
}

func TestSuiteDeterministic(t *testing.T) {
	spec, err := ByName("youtube")
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("dataset build not deterministic")
	}
	for i := range a.Edges() {
		if a.Edges()[i] != b.Edges()[i] {
			t.Fatalf("edge %d differs between builds", i)
		}
	}
}

// TestSuiteStructuralTargets verifies, for the full-scale analogs, the
// structural axes the paper's analysis depends on. It builds every dataset
// (cached), so it is skipped in -short mode.
func TestSuiteStructuralTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite build in -short mode")
	}
	for _, spec := range Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g, err := spec.BuildCached()
			if err != nil {
				t.Fatal(err)
			}
			sym := g.SymmetryPct()
			if spec.Paper.SymmetryPct == 100 && sym != 100 {
				t.Errorf("symmetry %g, want 100", sym)
			}
			if spec.Paper.SymmetryPct < 100 {
				if diff := sym - spec.Paper.SymmetryPct; diff < -8 || diff > 8 {
					t.Errorf("symmetry %g, paper %g", sym, spec.Paper.SymmetryPct)
				}
			}
			zi, zo := g.ZeroDegreePct()
			if spec.Paper.ZeroInPct == 0 && zi != 0 {
				t.Errorf("zero-in %g, want 0", zi)
			}
			if spec.Paper.ZeroInPct > 0 {
				if diff := zi - spec.Paper.ZeroInPct; diff < -10 || diff > 10 {
					t.Errorf("zero-in %g, paper %g", zi, spec.Paper.ZeroInPct)
				}
			}
			_ = zo
			_, comps := g.ConnectedComponents()
			if spec.Paper.Components == 1 && comps != 1 {
				t.Errorf("components %d, want 1", comps)
			}
			if spec.Paper.Components > 40 && comps < 10 {
				t.Errorf("components %d, paper has many (%d)", comps, spec.Paper.Components)
			}
			if spec.Road {
				meanDeg := float64(g.NumEdges()) / float64(g.NumVertices())
				if meanDeg < 2.2 || meanDeg > 3.6 {
					t.Errorf("road mean degree %.2f, want ≈2.8", meanDeg)
				}
			}
		})
	}
}
