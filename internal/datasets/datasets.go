// Package datasets defines the nine evaluation datasets of the paper as
// deterministic synthetic analogs, scaled down ~100× from the originals
// (SNAP road networks and social graphs plus two Twitter-crawl follow
// graphs), matched on the structural axes that drive the paper's findings:
// degree skew, edge symmetry, zero-degree fractions, triangle density,
// component count and diameter class. Each spec also records the paper's
// original Table 1 row so the characterization harness can print
// paper-vs-measured side by side.
package datasets

import (
	"fmt"
	"sync"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
)

// PaperRow is the original dataset's Table 1 row, for comparison reports.
type PaperRow struct {
	Vertices         int64
	Edges            int64
	SymmetryPct      float64
	ZeroInPct        float64
	ZeroOutPct       float64
	Triangles        int64
	Components       int
	Diameter         int // 0 when DiameterInfinite
	DiameterInfinite bool
	SizeOnDisk       string
}

// Spec describes one analog dataset: how to build it and what the paper
// reported for the original.
type Spec struct {
	// Name is the dataset identifier, lower-cased from the paper's table.
	Name string
	// Directed reports whether the original graph is directed; undirected
	// originals are materialized with both edge orientations.
	Directed bool
	// Large marks the datasets the paper treats as "big" when discussing
	// granularity and strategy selection (orkut, socLiveJournal, follow-*).
	Large bool
	// Road marks the three road networks (excluded from SSSP in the paper).
	Road bool
	// Paper is the original's characterization from Table 1.
	Paper PaperRow
	// Build constructs the analog graph. Deterministic.
	Build func() (*graph.Graph, error)
}

// socialParams drives buildSocial, the shared recipe for the six social
// analogs: an R-MAT skeleton, deduplicated, partially symmetrized, with
// leaf vertices and detached fragments injected.
type socialParams struct {
	scale      int
	edgeFactor float64
	a, b, c, d float64
	symPct     float64 // target reciprocation percentage; 100 = undirected
	zeroInPct  float64 // target percentage of zero-in-degree vertices
	zeroOutPct float64
	connect    bool // join all components into one (single-component originals)
	fragments  int
	seed       uint64
}

func buildSocial(p socialParams) (*graph.Graph, error) {
	cfg := gen.RMATConfig{
		Scale: p.scale, EdgeFactor: p.edgeFactor,
		A: p.a, B: p.b, C: p.c, D: p.d,
		Noise: 0.1, Seed: p.seed,
	}
	g, err := gen.RMAT(cfg)
	if err != nil {
		return nil, err
	}
	g = gen.DropSelfLoops(gen.Dedup(g))
	if p.connect {
		g = gen.Connect(g)
	}
	if p.symPct > 0 {
		g, err = gen.Symmetrize(g, p.symPct, p.seed+1)
		if err != nil {
			return nil, err
		}
	}
	if p.zeroInPct > 0 || p.zeroOutPct > 0 {
		g, err = gen.InjectLeavesTarget(g, p.zeroInPct, p.zeroOutPct, p.seed+2)
		if err != nil {
			return nil, err
		}
	}
	if p.fragments > 0 {
		g, err = gen.AddFragments(g, p.fragments, p.seed+3)
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Suite returns the nine analog datasets at the default (~1/100) scale, in
// the paper's Table 1 order (ascending original vertex count).
func Suite() []Spec {
	return []Spec{
		{
			Name: "roadnet-pa", Directed: false, Road: true,
			Paper: PaperRow{Vertices: 1_088_092, Edges: 3_083_796, SymmetryPct: 100,
				Triangles: 67_150, Components: 1052, DiameterInfinite: true, SizeOnDisk: "83.7M"},
			Build: func() (*graph.Graph, error) {
				return gen.Road(gen.RoadConfig{
					Rows: 100, Cols: 104, EdgeProb: 0.42, DiagProb: 0.03,
					Fragments: 105, Seed: seedFor(1),
				})
			},
		},
		{
			Name: "youtube", Directed: false,
			Paper: PaperRow{Vertices: 1_134_890, Edges: 2_987_624, SymmetryPct: 100,
				Triangles: 3_056_386, Components: 1, Diameter: 20, SizeOnDisk: "74.0M"},
			Build: func() (*graph.Graph, error) {
				g, err := gen.PreferentialAttachment(11_000, 2, seedFor(2))
				if err != nil {
					return nil, err
				}
				// Preferential attachment alone is nearly triangle-free;
				// the real YouTube graph is community-rich, so close
				// wedges until the triangle density is social-network-like.
				return gen.CloseTriangles(g, 9_000, seedFor(2)+1)
			},
		},
		{
			Name: "roadnet-tx", Directed: false, Road: true,
			Paper: PaperRow{Vertices: 1_379_917, Edges: 3_843_320, SymmetryPct: 100,
				Triangles: 82_869, Components: 1766, DiameterInfinite: true, SizeOnDisk: "56.5M"},
			Build: func() (*graph.Graph, error) {
				return gen.Road(gen.RoadConfig{
					Rows: 110, Cols: 125, EdgeProb: 0.38, DiagProb: 0.03,
					Fragments: 176, Seed: seedFor(3),
				})
			},
		},
		{
			Name: "pocek", Directed: true,
			Paper: PaperRow{Vertices: 1_632_803, Edges: 30_622_564, SymmetryPct: 54.34,
				ZeroInPct: 6.94, ZeroOutPct: 12.25, Triangles: 32_557_458,
				Components: 1, Diameter: 11, SizeOnDisk: "404M"},
			Build: func() (*graph.Graph, error) {
				return buildSocial(socialParams{
					scale: 14, edgeFactor: 16,
					a: 0.57, b: 0.19, c: 0.19, d: 0.05,
					symPct: 54.34, zeroInPct: 6.94, zeroOutPct: 12.25,
					connect: true,
					seed:    seedFor(4),
				})
			},
		},
		{
			Name: "roadnet-ca", Directed: false, Road: true,
			Paper: PaperRow{Vertices: 1_965_206, Edges: 5_533_214, SymmetryPct: 100,
				Triangles: 120_676, Components: 1052, DiameterInfinite: true, SizeOnDisk: "83.7M"},
			Build: func() (*graph.Graph, error) {
				return gen.Road(gen.RoadConfig{
					Rows: 130, Cols: 150, EdgeProb: 0.42, DiagProb: 0.03,
					Fragments: 105, Seed: seedFor(5),
				})
			},
		},
		{
			Name: "orkut", Directed: false, Large: true,
			Paper: PaperRow{Vertices: 3_072_441, Edges: 117_185_083, SymmetryPct: 100,
				Triangles: 627_584_181, Components: 1, Diameter: 9, SizeOnDisk: "3.3G"},
			Build: func() (*graph.Graph, error) {
				return buildSocial(socialParams{
					scale: 15, edgeFactor: 18,
					a: 0.57, b: 0.19, c: 0.19, d: 0.05,
					symPct:  100,
					connect: true,
					seed:    seedFor(6),
				})
			},
		},
		{
			Name: "soclivejournal", Directed: true, Large: true,
			Paper: PaperRow{Vertices: 4_847_571, Edges: 68_993_773, SymmetryPct: 75.03,
				ZeroInPct: 7.39, ZeroOutPct: 11.12, Triangles: 285_730_264,
				Components: 1876, DiameterInfinite: true, SizeOnDisk: "1.0G"},
			Build: func() (*graph.Graph, error) {
				return buildSocial(socialParams{
					scale: 16, edgeFactor: 10,
					a: 0.57, b: 0.19, c: 0.19, d: 0.05,
					symPct: 75.03, zeroInPct: 7.4, zeroOutPct: 11.1,
					fragments: 188,
					seed:      seedFor(7),
				})
			},
		},
		{
			Name: "follow-jul", Directed: true, Large: true,
			Paper: PaperRow{Vertices: 17_100_000, Edges: 136_700_000, SymmetryPct: 37.57,
				ZeroInPct: 46.94, ZeroOutPct: 25.65, Triangles: 4_800_000_000,
				Components: 52, DiameterInfinite: true, SizeOnDisk: "2.7G"},
			Build: func() (*graph.Graph, error) {
				dec, err := buildFollowDec()
				if err != nil {
					return nil, err
				}
				// The July crawl is a strict subset of the December crawl;
				// sampling unordered pairs keeps reciprocation intact.
				return gen.PairSubset(dec, 136.7/204.9, seedFor(8))
			},
		},
		{
			Name: "follow-dec", Directed: true, Large: true,
			Paper: PaperRow{Vertices: 26_300_000, Edges: 204_900_000, SymmetryPct: 37.57,
				ZeroInPct: 55.05, ZeroOutPct: 18.34, Triangles: 7_600_000_000,
				Components: 47, DiameterInfinite: true, SizeOnDisk: "4.1G"},
			Build: buildFollowDec,
		},
	}
}

// buildFollowDec constructs the follow-dec analog: an extremely skewed
// R-MAT ("superstar" accounts), weak reciprocation, and a large population
// of crawl-leaf vertices.
func buildFollowDec() (*graph.Graph, error) {
	return buildSocial(socialParams{
		scale: 17, edgeFactor: 10,
		a: 0.65, b: 0.18, c: 0.12, d: 0.05,
		symPct: 37.57, zeroInPct: 55.05, zeroOutPct: 18.34,
		fragments: 46,
		seed:      seedFor(9),
	})
}

// seedFor derives a fixed, stable per-dataset seed.
func seedFor(i uint64) uint64 { return 0xC07F17_0000 + i }

// TinySuite returns miniature versions of a representative subset of the
// datasets (a road network, an undirected social graph, a directed skewed
// graph), for fast unit and integration tests.
func TinySuite() []Spec {
	return []Spec{
		{
			Name: "tiny-road", Directed: false, Road: true,
			Build: func() (*graph.Graph, error) {
				return gen.Road(gen.RoadConfig{
					Rows: 16, Cols: 16, EdgeProb: 0.4, DiagProb: 0.05,
					Fragments: 5, Seed: seedFor(101),
				})
			},
		},
		{
			Name: "tiny-social", Directed: false,
			Build: func() (*graph.Graph, error) {
				return gen.PreferentialAttachment(400, 3, seedFor(102))
			},
		},
		{
			Name: "tiny-follow", Directed: true, Large: true,
			Build: func() (*graph.Graph, error) {
				return buildSocial(socialParams{
					scale: 9, edgeFactor: 8,
					a: 0.65, b: 0.18, c: 0.12, d: 0.05,
					symPct: 37.57, zeroInPct: 20, zeroOutPct: 10,
					fragments: 4,
					seed:      seedFor(103),
				})
			},
		},
	}
}

// ByName returns the suite spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// cache memoizes built graphs: experiment harnesses build each dataset
// once per process.
var cache sync.Map // name -> *graph.Graph

// BuildCached builds the spec's graph, memoizing by name. The returned
// graph must be treated as read-only.
func (s Spec) BuildCached() (*graph.Graph, error) {
	if v, ok := cache.Load(s.Name); ok {
		return v.(*graph.Graph), nil
	}
	g, err := s.Build()
	if err != nil {
		return nil, fmt.Errorf("datasets: building %s: %w", s.Name, err)
	}
	actual, _ := cache.LoadOrStore(s.Name, g)
	return actual.(*graph.Graph), nil
}
