package pregel

// Frontier-equivalence suite: the sparse (frontier-index) compute path, the
// dense scan and every ScanAuto mix of the two must produce bit-identical
// results at every parallelism — including order-sensitive float64 merges —
// across strategies, graph families and grown/shrunk topology generations.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// ccTestProgram replicates the connected-components shape from
// internal/algorithms: min-label flooding over Either. Its frontier decays
// naturally (label waves die out per component), so under ScanAuto real runs
// cross the density threshold mid-run.
func ccTestProgram(policy ScanPolicy) Program[int64, int64] {
	min := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	return Program[int64, int64]{
		Init:  func(id graph.VertexID) int64 { return int64(id) },
		VProg: func(_ graph.VertexID, val, msg int64) int64 { return min(val, msg) },
		SendMsg: func(t *Triplet[int64], emit Emitter[int64]) {
			if t.SrcVal < t.DstVal {
				emit.ToDst(t.SrcVal)
			} else if t.DstVal < t.SrcVal {
				emit.ToSrc(t.DstVal)
			}
		},
		MergeMsg:        min,
		InitialMsg:      math.MaxInt64,
		ActiveDirection: Either,
		ScanPolicy:      policy,
	}
}

// pushTestProgram replicates the dynamic-PageRank shape: Out direction and
// an order-sensitive float64 sum merge. Any reordering of message combines
// between the dense and sparse paths shows up as a bit difference here.
func pushTestProgram(policy ScanPolicy) Program[float64, float64] {
	return Program[float64, float64]{
		Init:  func(id graph.VertexID) float64 { return 1 + float64(id%97)/31 },
		VProg: func(_ graph.VertexID, val, msg float64) float64 { return val*0.5 + msg*0.25 },
		SendMsg: func(t *Triplet[float64], emit Emitter[float64]) {
			if t.SrcVal > 1e-3 {
				emit.ToDst(t.SrcVal * 0.375)
			}
		},
		MergeMsg:        func(a, b float64) float64 { return a + b },
		MaxIterations:   8,
		ActiveDirection: Out,
		ScanPolicy:      policy,
	}
}

// floodTestProgram replicates the label-propagation shape: AllEdges, so the
// engine must keep the unconditional dense scan regardless of policy.
func floodTestProgram(policy ScanPolicy) Program[int64, int64] {
	max := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	return Program[int64, int64]{
		Init:  func(id graph.VertexID) int64 { return int64(id) },
		VProg: func(_ graph.VertexID, val, msg int64) int64 { return max(val, msg) },
		SendMsg: func(t *Triplet[int64], emit Emitter[int64]) {
			emit.ToDst(t.SrcVal)
			emit.ToSrc(t.DstVal)
		},
		MergeMsg:        max,
		MaxIterations:   4,
		ActiveDirection: AllEdges,
		ScanPolicy:      policy,
	}
}

// reverseReachProgram covers the In direction: reverse BFS from seed
// vertices, scanning only in-edges of frontier destinations.
func reverseReachProgram(policy ScanPolicy) Program[int64, int64] {
	return Program[int64, int64]{
		Init: func(id graph.VertexID) int64 {
			if id%13 == 0 {
				return 1
			}
			return 0
		},
		VProg: func(_ graph.VertexID, val, msg int64) int64 {
			if msg > val {
				return msg
			}
			return val
		},
		SendMsg: func(t *Triplet[int64], emit Emitter[int64]) {
			if t.DstVal == 1 && t.SrcVal == 0 {
				emit.ToSrc(1)
			}
		},
		MergeMsg: func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		},
		ActiveDirection: In,
		ScanPolicy:      policy,
	}
}

// handshakeProgram covers Both: the sparse gather walks source lists and
// must re-check the destination frontier bit at visit time.
func handshakeProgram(policy ScanPolicy) Program[int64, int64] {
	return Program[int64, int64]{
		Init:  func(id graph.VertexID) int64 { return int64(id % 5) },
		VProg: func(_ graph.VertexID, val, msg int64) int64 { return val + msg },
		SendMsg: func(t *Triplet[int64], emit Emitter[int64]) {
			if (t.SrcVal+t.DstVal)%3 == 0 {
				emit.ToSrc(1)
				emit.ToDst(2)
			}
		},
		MergeMsg:        func(a, b int64) int64 { return a + b },
		MaxIterations:   6,
		ActiveDirection: Both,
		ScanPolicy:      policy,
	}
}

// checkSameStats asserts the scan-path-independent statistics agree per
// superstep: which triplets ran, what they emitted and who was active never
// depend on the scan policy — only ActiveEdges (work examined) may differ.
func checkSameStats(t *testing.T, label string, ref, got *RunStats) {
	t.Helper()
	if len(ref.Supersteps) != len(got.Supersteps) {
		t.Fatalf("%s: %d supersteps != %d", label, len(got.Supersteps), len(ref.Supersteps))
	}
	if ref.Converged != got.Converged {
		t.Fatalf("%s: converged %v != %v", label, got.Converged, ref.Converged)
	}
	for i := range ref.Supersteps {
		r, g := &ref.Supersteps[i], &got.Supersteps[i]
		if r.ActiveVertices != g.ActiveVertices || r.EdgesScanned != g.EdgesScanned || r.MsgsEmitted != g.MsgsEmitted {
			t.Fatalf("%s superstep %d: active/scanned/emitted (%d,%d,%d) != (%d,%d,%d)",
				label, i, g.ActiveVertices, g.EdgesScanned, g.MsgsEmitted,
				r.ActiveVertices, r.EdgesScanned, r.MsgsEmitted)
		}
		if g.ActiveEdges < g.EdgesScanned {
			t.Fatalf("%s superstep %d: ActiveEdges %d < EdgesScanned %d", label, i, g.ActiveEdges, g.EdgesScanned)
		}
	}
}

func checkSameInt64(t *testing.T, label string, ref, got []int64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d values != %d", label, len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: vertex %d: %d != %d", label, i, got[i], ref[i])
		}
	}
}

// checkSameFloat64 compares by bit pattern: the equivalence claim is
// bit-identity, not epsilon closeness.
func checkSameFloat64(t *testing.T, label string, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d values != %d", label, len(got), len(ref))
	}
	for i := range ref {
		if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: vertex %d: %v (%#x) != %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), ref[i], math.Float64bits(ref[i]))
		}
	}
}

// frontierTopologies builds the three topology generations of one
// (graph, strategy) pair at the given parallelism: the base build, a grown
// topology patched via ApplyDelta, and a shrunk one patched after a
// retraction batch. Running the engine over the patched topologies proves
// ApplyDelta's rebuilt frontier indexes, not just the fresh-build ones.
func frontierTopologies(t testing.TB, base []graph.Edge, s partition.Strategy, numParts, par int) map[string]*PartitionedGraph {
	t.Helper()
	g := graph.FromEdges(append([]graph.Edge(nil), base...))
	a, err := partition.Assign(g, s, numParts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}

	grown, _ := buildDelta(t, s, base, deltaEdges(23, 2*len(base)/3, len(base)/8+4), numParts, par, false)

	r := rand.New(rand.NewSource(31))
	batch := retractBatch(r, g, len(base)/10+1)
	sg, d, err := g.Shrink(batch)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := a.Extend(sg, s)
	if err != nil {
		t.Fatal(err)
	}
	remap, err := graph.RemapVertices(d.OldVerts, sg)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := pg.ApplyDelta(sa, remap)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*PartitionedGraph{"base": pg, "grown": grown, "shrunk": shrunk}
}

// frontierGraphs returns the three dataset analogs of the suite as edge
// lists: a uniform random graph, a skewed RMAT graph and a fragmented
// road-style grid.
func frontierGraphs(t testing.TB) map[string][]graph.Edge {
	t.Helper()
	rmat, err := gen.RMAT(gen.DefaultRMAT(6, 6, 42))
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.Road(gen.RoadConfig{Rows: 8, Cols: 10, EdgeProb: 0.9, DiagProb: 0.2, Fragments: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]graph.Edge{
		"random": deltaEdges(21, 100, 700),
		"rmat":   append([]graph.Edge(nil), rmat.Edges()...),
		"road":   append([]graph.Edge(nil), road.Edges()...),
	}
}

// frontierVariants are the (policy, parallelism) combinations compared
// against the serial dense reference in every equivalence test.
var frontierVariants = []struct {
	name   string
	policy ScanPolicy
	par    int
}{
	{"sparse-serial", ScanSparse, 1},
	{"sparse-par", ScanSparse, 4},
	{"dense-par", ScanDense, 4},
	{"auto-par", ScanAuto, 4},
}

// TestFrontierEquivalenceMatrix is the core of the suite: CC (Either),
// push-rank (Out, float64) and label flood (AllEdges) over
// strategies × graph families × base/grown/shrunk generations, each variant
// compared value-for-value against the serial dense reference.
func TestFrontierEquivalenceMatrix(t *testing.T) {
	strategies := []partition.Strategy{
		partition.EdgePartition2D(),
		partition.Greedy(),
		partition.HDRF(1),
		partition.Hybrid(8),
	}
	ctx := context.Background()
	for gname, base := range frontierGraphs(t) {
		for _, s := range strategies {
			t.Run(gname+"/"+s.Name(), func(t *testing.T) {
				refTops := frontierTopologies(t, base, s, 7, 1)
				variantTops := make(map[int]map[string]*PartitionedGraph)
				for _, v := range frontierVariants {
					if _, ok := variantTops[v.par]; !ok {
						variantTops[v.par] = frontierTopologies(t, base, s, 7, v.par)
					}
				}
				for genName, ref := range refTops {
					ccRef, ccStats, err := Run(ctx, ref, ccTestProgram(ScanDense))
					if err != nil {
						t.Fatal(err)
					}
					pushRef, pushStats, err := Run(ctx, ref, pushTestProgram(ScanDense))
					if err != nil {
						t.Fatal(err)
					}
					floodRef, floodStats, err := Run(ctx, ref, floodTestProgram(ScanDense))
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range frontierVariants {
						pg := variantTops[v.par][genName]
						label := fmt.Sprintf("%s/%s/cc", genName, v.name)
						vals, stats, err := Run(ctx, pg, ccTestProgram(v.policy))
						if err != nil {
							t.Fatal(err)
						}
						checkSameInt64(t, label, ccRef, vals)
						checkSameStats(t, label, ccStats, stats)

						label = fmt.Sprintf("%s/%s/push", genName, v.name)
						fvals, fstats, err := Run(ctx, pg, pushTestProgram(v.policy))
						if err != nil {
							t.Fatal(err)
						}
						checkSameFloat64(t, label, pushRef, fvals)
						checkSameStats(t, label, pushStats, fstats)

						label = fmt.Sprintf("%s/%s/flood", genName, v.name)
						avals, astats, err := Run(ctx, pg, floodTestProgram(v.policy))
						if err != nil {
							t.Fatal(err)
						}
						checkSameInt64(t, label, floodRef, avals)
						checkSameStats(t, label, floodStats, astats)
					}
				}
			})
		}
	}
}

// TestFrontierDirectionCoverage exercises the remaining directions — In
// (destination-list gather) and Both (source gather plus visit-time
// destination re-check) — against the serial dense reference.
func TestFrontierDirectionCoverage(t *testing.T) {
	ctx := context.Background()
	base := deltaEdges(41, 90, 650)
	for _, s := range []partition.Strategy{partition.EdgePartition2D(), partition.HDRF(1)} {
		refTops := frontierTopologies(t, base, s, 5, 1)
		variantTops := map[int]map[string]*PartitionedGraph{1: refTops}
		variantTops[4] = frontierTopologies(t, base, s, 5, 4)
		for genName, ref := range refTops {
			inRef, inStats, err := Run(ctx, ref, reverseReachProgram(ScanDense))
			if err != nil {
				t.Fatal(err)
			}
			bothRef, bothStats, err := Run(ctx, ref, handshakeProgram(ScanDense))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range frontierVariants {
				pg := variantTops[v.par][genName]
				label := fmt.Sprintf("%s/%s/%s/in", s.Name(), genName, v.name)
				vals, stats, err := Run(ctx, pg, reverseReachProgram(v.policy))
				if err != nil {
					t.Fatal(err)
				}
				checkSameInt64(t, label, inRef, vals)
				checkSameStats(t, label, inStats, stats)

				label = fmt.Sprintf("%s/%s/%s/both", s.Name(), genName, v.name)
				vals, stats, err = Run(ctx, pg, handshakeProgram(v.policy))
				if err != nil {
					t.Fatal(err)
				}
				checkSameInt64(t, label, bothRef, vals)
				checkSameStats(t, label, bothStats, stats)
			}
		}
	}
}

// TestAllEdgesIgnoresSparsePolicy: an AllEdges program visits every edge
// every superstep even under ScanSparse — every edge is live by definition,
// so the frontier index has nothing to skip.
func TestAllEdgesIgnoresSparsePolicy(t *testing.T) {
	g := graph.FromEdges(deltaEdges(51, 60, 400))
	a, err := partition.Assign(g, partition.EdgePartition2D(), 4)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Run(context.Background(), pg, floodTestProgram(ScanSparse))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(g.NumLiveEdges())
	for i := range stats.Supersteps {
		if got := stats.Supersteps[i].ActiveEdges; got != total {
			t.Fatalf("superstep %d: AllEdges examined %d edges, want all %d", i, got, total)
		}
	}
}

// chainEdges returns a directed path 0→1→…→n-1 — the worst case for a dense
// scan (the CC frontier collapses to a single wavefront almost immediately)
// and the cleanest way to force a ScanAuto density crossover.
func chainEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	return edges
}

// bfsTestProgram is single-source BFS from vertex 0 over Out: after the
// fully-active superstep 1 the frontier collapses to the one-vertex
// wavefront, the cleanest way to force a ScanAuto dense→sparse crossover.
func bfsTestProgram(policy ScanPolicy) Program[int64, int64] {
	const unreached = int64(math.MaxInt64)
	min := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	return Program[int64, int64]{
		Init: func(id graph.VertexID) int64 {
			if id == 0 {
				return 0
			}
			return unreached
		},
		VProg: func(_ graph.VertexID, val, msg int64) int64 { return min(val, msg) },
		SendMsg: func(t *Triplet[int64], emit Emitter[int64]) {
			if t.SrcVal != unreached && t.SrcVal+1 < t.DstVal {
				emit.ToDst(t.SrcVal + 1)
			}
		},
		MergeMsg:        min,
		InitialMsg:      unreached,
		ActiveDirection: Out,
		ScanPolicy:      policy,
	}
}

// TestScanAutoCrossesDensityThreshold proves ScanAuto actually switches
// paths mid-run: BFS over a long chain starts with every vertex active
// (dense superstep 1) and collapses to a single-vertex wavefront below the
// 1/8 threshold, observable as ActiveEdges dropping below the full edge
// count.
func TestScanAutoCrossesDensityThreshold(t *testing.T) {
	base := chainEdges(512)
	g := graph.FromEdges(append([]graph.Edge(nil), base...))
	a, err := partition.Assign(g, partition.EdgePartition2D(), 4)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	bfsCapped := func(policy ScanPolicy) Program[int64, int64] {
		p := bfsTestProgram(policy)
		p.MaxIterations = 40
		return p
	}
	auto, stats, err := Run(context.Background(), pg, bfsCapped(ScanAuto))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(g.NumLiveEdges())
	var sawDense, sawSparse bool
	for i := range stats.Supersteps {
		switch ae := stats.Supersteps[i].ActiveEdges; {
		case ae == total:
			sawDense = true
		case ae < total:
			sawSparse = true
		}
	}
	if !sawDense || !sawSparse {
		t.Fatalf("ScanAuto never crossed the density threshold (dense=%v sparse=%v over %d supersteps)",
			sawDense, sawSparse, len(stats.Supersteps))
	}
	// And the crossover changes nothing: same distances as forced policies.
	dense, _, err := Run(context.Background(), pg, bfsCapped(ScanDense))
	if err != nil {
		t.Fatal(err)
	}
	sparse, _, err := Run(context.Background(), pg, bfsCapped(ScanSparse))
	if err != nil {
		t.Fatal(err)
	}
	checkSameInt64(t, "auto-vs-dense", dense, auto)
	checkSameInt64(t, "sparse-vs-dense", dense, sparse)
}

// FuzzFrontierScanEquivalence fuzzes the dense/sparse/auto equivalence over
// random graph shapes, partition counts and directions. The seed corpus
// includes a chain (density-threshold crossover mid-run, see
// TestScanAutoCrossesDensityThreshold) and a dense clique-ish graph that
// stays on the dense path throughout.
func FuzzFrontierScanEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(60), uint16(400), uint8(7), uint8(0))
	f.Add(int64(2), uint8(200), uint16(220), uint8(4), uint8(1)) // sparse chain-like: crossover
	f.Add(int64(3), uint8(24), uint16(500), uint8(3), uint8(2))  // dense: stays above threshold
	f.Add(int64(4), uint8(90), uint16(300), uint8(16), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nv uint8, ne uint16, parts uint8, dir uint8) {
		if nv < 2 {
			nv = 2
		}
		numParts := int(parts%32) + 1
		base := deltaEdges(seed, int(nv), int(ne)%1200+1)
		g := graph.FromEdges(base)
		a, err := partition.Assign(g, partition.EdgePartition2D(), numParts)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		switch dir % 4 {
		case 0: // Either, int64 min
			ref, refStats, err := Run(ctx, pg, ccTestProgram(ScanDense))
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []ScanPolicy{ScanSparse, ScanAuto} {
				got, gotStats, err := Run(ctx, pg, ccTestProgram(policy))
				if err != nil {
					t.Fatal(err)
				}
				checkSameInt64(t, policy.String(), ref, got)
				checkSameStats(t, policy.String(), refStats, gotStats)
			}
		case 1: // Out, order-sensitive float64
			ref, refStats, err := Run(ctx, pg, pushTestProgram(ScanDense))
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []ScanPolicy{ScanSparse, ScanAuto} {
				got, gotStats, err := Run(ctx, pg, pushTestProgram(policy))
				if err != nil {
					t.Fatal(err)
				}
				checkSameFloat64(t, policy.String(), ref, got)
				checkSameStats(t, policy.String(), refStats, gotStats)
			}
		case 2: // In
			ref, refStats, err := Run(ctx, pg, reverseReachProgram(ScanDense))
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []ScanPolicy{ScanSparse, ScanAuto} {
				got, gotStats, err := Run(ctx, pg, reverseReachProgram(policy))
				if err != nil {
					t.Fatal(err)
				}
				checkSameInt64(t, policy.String(), ref, got)
				checkSameStats(t, policy.String(), refStats, gotStats)
			}
		default: // Both
			ref, refStats, err := Run(ctx, pg, handshakeProgram(ScanDense))
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []ScanPolicy{ScanSparse, ScanAuto} {
				got, gotStats, err := Run(ctx, pg, handshakeProgram(policy))
				if err != nil {
					t.Fatal(err)
				}
				checkSameInt64(t, policy.String(), ref, got)
				checkSameStats(t, policy.String(), refStats, gotStats)
			}
		}
	})
}
