package cutfit_test

import (
	"context"
	"reflect"
	"testing"

	"cutfit"
	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/testutil"
)

// equivEdges generates a deterministic skewed edge stream, sized to span
// many 256-edge blocks.
func equivEdges(n int, seed uint64) []cutfit.Edge {
	edges := make([]cutfit.Edge, n)
	x := seed | 1
	for i := range edges {
		x = x*6364136223846793005 + 1442695040888963407
		src := (x >> 33) % 1500
		x = x*6364136223846793005 + 1442695040888963407
		dst := (x >> 33) % 1500
		if i%3 == 0 { // skew: a third of edges hit a small hub set
			dst %= 40
		}
		edges[i] = cutfit.Edge{Src: cutfit.VertexID(src), Dst: cutfit.VertexID(dst)}
	}
	return edges
}

// blockGraphOf rebuilds g's exact edge content into a fresh block-backed
// graph with small blocks, so every scan crosses many block boundaries.
func blockGraphOf(t *testing.T, edges []cutfit.Edge) *cutfit.Graph {
	t.Helper()
	bb := graph.NewBlockBuilder(256)
	bb.Append(edges)
	return graph.FromBlocks(bb.Finish())
}

// generations derives base → grown → shrunk → slid pairs of a dense and a
// block-backed graph through identical mutation sequences. Every block
// generation must keep its block tier — otherwise the suite would silently
// compare dense against dense.
func generations(t *testing.T) map[string][2]*cutfit.Graph {
	t.Helper()
	const n = 8192
	edges := equivEdges(n, 42)

	dense := cutfit.FromEdges(append([]cutfit.Edge(nil), edges...))
	block := blockGraphOf(t, edges)

	suffix := equivEdges(1024, 99)
	dGrown, _ := dense.SlideWindow(suffix, 0)
	bGrown, _ := block.SlideWindow(suffix, 0)

	retract := []cutfit.Edge{edges[10], edges[777], edges[5000], suffix[3]}
	dShrunk, _, err := dGrown.Shrink(retract)
	if err != nil {
		t.Fatal(err)
	}
	bShrunk, _, err := bGrown.Shrink(retract)
	if err != nil {
		t.Fatal(err)
	}

	more := equivEdges(512, 7)
	dSlid, _ := dShrunk.SlideWindow(more, 300)
	bSlid, _ := bShrunk.SlideWindow(more, 300)

	gens := map[string][2]*cutfit.Graph{
		"base":   {dense, block},
		"grown":  {dGrown, bGrown},
		"shrunk": {dShrunk, bShrunk},
		"slid":   {dSlid, bSlid},
	}
	for name, pair := range gens {
		if pair[0].BlockBacked() {
			t.Fatalf("%s: dense twin is block-backed", name)
		}
		if !pair[1].BlockBacked() {
			t.Fatalf("%s: block twin lost its block tier", name)
		}
	}
	return gens
}

// TestBlockDenseEquivalence: a block-backed graph is bit-identical to its
// dense twin through the whole pipeline — fingerprint, assignment PIDs,
// the full metric set, PageRank and connected components — across
// base/grown/shrunk/slid generations and hash, streaming and hybrid
// strategies. Runs under `make race`, so it also exercises the parallel
// block scatter pass and concurrent block decode for data races.
func TestBlockDenseEquivalence(t *testing.T) {
	strategies := map[string]cutfit.Strategy{}
	for _, name := range []string{"2D", "Greedy", "HDRF", "Hybrid"} {
		s, err := cutfit.StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		strategies[name] = s
	}
	const numParts = 16
	ctx := context.Background()

	for gen, pair := range generations(t) {
		dense, block := pair[0], pair[1]
		t.Run(gen, func(t *testing.T) {
			if df, bf := dense.Fingerprint(), block.Fingerprint(); df != bf {
				t.Fatalf("fingerprint: dense %016x, block %016x", df, bf)
			}
			for name, s := range strategies {
				t.Run(name, func(t *testing.T) {
					da, err := partition.Assign(dense, s, numParts)
					if err != nil {
						t.Fatal(err)
					}
					ba, err := partition.Assign(block, s, numParts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(da.PIDs, ba.PIDs) {
						t.Fatal("assignment PIDs differ")
					}

					dm, err := metrics.FromAssignment(da)
					if err != nil {
						t.Fatal(err)
					}
					bm, err := metrics.FromAssignment(ba)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(dm, bm) {
						t.Fatalf("metrics differ:\ndense %+v\nblock %+v", dm, bm)
					}

					dpg, err := pregel.NewPartitionedGraphFromAssignment(da, pregel.BuildOptions{})
					if err != nil {
						t.Fatal(err)
					}
					bpg, err := pregel.NewPartitionedGraphFromAssignment(ba, pregel.BuildOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if err := testutil.CheckPartitionInvariants(block, ba.PIDs, numParts, bpg); err != nil {
						t.Fatal(err)
					}

					dRanks, _, err := runAs[[]float64](ctx, dpg, "pagerank", cutfit.ServedParams(5))
					if err != nil {
						t.Fatal(err)
					}
					bRanks, _, err := runAs[[]float64](ctx, bpg, "pagerank", cutfit.ServedParams(5))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(dRanks, bRanks) {
						t.Fatal("PageRank ranks differ")
					}

					dCC, _, err := runAs[[]cutfit.VertexID](ctx, dpg, "cc", cutfit.ServedParams(0))
					if err != nil {
						t.Fatal(err)
					}
					bCC, _, err := runAs[[]cutfit.VertexID](ctx, bpg, "cc", cutfit.ServedParams(0))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(dCC, bCC) {
						t.Fatal("connected-components labels differ")
					}
				})
			}
		})
	}
}

// TestBlockAssignAllocsOBlocks: one-pass streamed assignment over a block
// store allocates O(blocks), never O(E) — the per-block decode goes
// through pooled scratch and the only O(E) allocation is the PID slice
// itself. The stateless 2D hash strategy is used so the measurement
// isolates block-tier decode overhead from any per-vertex strategy state.
func TestBlockAssignAllocsOBlocks(t *testing.T) {
	const n = 1 << 15 // 128 blocks of 256
	edges := equivEdges(n, 5)
	bb := graph.NewBlockBuilder(256)
	bb.Append(edges)
	g := graph.FromBlocks(bb.Finish())
	s, err := cutfit.StrategyByName("2D")
	if err != nil {
		t.Fatal(err)
	}
	// Warm lazily-built views (vertex index, degrees) out of the measured
	// region; they are one-time costs, not per-assignment ones.
	if _, err := partition.Assign(g, s, 16); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := partition.Assign(g, s, 16); err != nil {
			t.Fatal(err)
		}
	})
	// O(blocks) budget: a handful of allocations per 256-edge block would
	// pass; one allocation per edge (O(E) ≈ 32768) must fail loudly.
	if limit := float64(g.Blocks().NumBlocks() * 8); allocs > limit {
		t.Fatalf("streamed assignment made %.0f allocations for %d blocks (limit %.0f)", allocs, g.Blocks().NumBlocks(), limit)
	}
}

// TestAdviseStreamsBlockGraph: Session.Advise gives a block-backed graph the
// recommendation its dense twin gets — ID locality detected on a road grid,
// not on a shuffled graph — and reads the edges block by block, so the
// block graph gains no dense edge list, the 16-byte-per-edge allocation the
// tier exists to avoid.
func TestAdviseStreamsBlockGraph(t *testing.T) {
	road, err := gen.Road(gen.RoadConfig{Rows: 30, Cols: 30, EdgeProb: 0.4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	se := cutfit.NewSession(cutfit.SessionOptions{})
	reasons := map[string]bool{}
	for name, dense := range map[string]*cutfit.Graph{"road": road, "shuffled": gen.Relabel(road, 3)} {
		block := blockGraphOf(t, dense.Edges())
		had := map[any]bool{}
		for _, s := range block.Shares() {
			had[s.Key] = true
		}
		want := se.Advise(dense, cutfit.ProfilePageRank, 16)
		got := se.Advise(block, cutfit.ProfilePageRank, 16)
		if got.Strategy.Name() != want.Strategy.Name() || got.Metric != want.Metric || got.Reason != want.Reason {
			t.Errorf("%s: block graph advised %+v, its dense twin %+v", name, got, want)
		}
		reasons[got.Reason] = true
		for _, s := range block.Shares() {
			if !had[s.Key] && s.Bytes >= 16*int64(block.NumEdges()) {
				t.Errorf("%s: advising the block graph left a new %d-byte share behind, a dense edge list's size", name, s.Bytes)
			}
		}
		if !block.BlockBacked() {
			t.Fatalf("%s: the block graph lost its tier", name)
		}
	}
	if len(reasons) != 2 {
		t.Fatal("the road grid and its shuffled twin got the same advice: ID locality went undetected")
	}
}
