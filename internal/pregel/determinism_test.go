package pregel_test

// Determinism regression for the parallel build and the scratch-reuse
// engine: results must be bit-identical whatever the worker count, and
// whatever scratch a previous run left behind. Run under the race
// detector (`go test -race ./internal/pregel/...`) this also exercises
// every engine phase for data races at both parallelism extremes.

import (
	"context"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/gen"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/testutil"
)

func TestParallelismDeterminism(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 0xFACE))
	if err != nil {
		t.Fatal(err)
	}
	const numParts = 8
	a, err := partition.Assign(g, partition.EdgePartition2D(), numParts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// GOMAXPROCS = 1 and GOMAXPROCS > NumParts, with and without buffer
	// reuse; every combination must agree exactly with the serial baseline.
	type variant struct {
		name    string
		workers int
		opts    pregel.BuildOptions
	}
	variants := []variant{
		{"serial", 1, pregel.BuildOptions{}},
		{"oversubscribed", numParts + 5, pregel.BuildOptions{}},
		{"oversubscribed-reuse", numParts + 5, pregel.BuildOptions{ReuseBuffers: true}},
	}

	var baseRanks []float64
	var baseCC []int64
	for i, v := range variants {
		testutil.SetGOMAXPROCS(t, v.workers)
		pg, err := pregel.NewPartitionedGraphFromAssignment(a, v.opts)
		if err != nil {
			t.Fatal(err)
		}
		// Two runs per variant: with ReuseBuffers the second run revives
		// the first run's scratch and must still match.
		for round := 0; round < 2; round++ {
			ranks, _, err := algorithms.PageRank(ctx, pg, 10, algorithms.DefaultResetProb)
			if err != nil {
				t.Fatal(err)
			}
			comps, _, err := algorithms.ConnectedComponents(ctx, pg, 0)
			if err != nil {
				t.Fatal(err)
			}
			cc := make([]int64, len(comps))
			for j, c := range comps {
				cc[j] = int64(c)
			}
			if i == 0 && round == 0 {
				baseRanks, baseCC = ranks, cc
				continue
			}
			if len(ranks) != len(baseRanks) || len(cc) != len(baseCC) {
				t.Fatalf("%s round %d: result length mismatch", v.name, round)
			}
			for j := range ranks {
				if ranks[j] != baseRanks[j] {
					t.Fatalf("%s round %d: PageRank[%d] = %v, serial baseline %v",
						v.name, round, j, ranks[j], baseRanks[j])
				}
			}
			for j := range cc {
				if cc[j] != baseCC[j] {
					t.Fatalf("%s round %d: CC[%d] = %d, serial baseline %d",
						v.name, round, j, cc[j], baseCC[j])
				}
			}
		}
	}
}

// TestReuseBuffersResultIsolation guards the copy-out contract: with
// ReuseBuffers the values returned by one run must not be overwritten by
// the next run on the same partitioned graph.
func TestReuseBuffersResultIsolation(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 1800, 0xB0B)
	if err != nil {
		t.Fatal(err)
	}
	const numParts = 4
	a, err := partition.Assign(g, partition.RandomVertexCut(), numParts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, _, err := algorithms.PageRank(ctx, pg, 3, algorithms.DefaultResetProb)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), first...)
	// A different-length run on the same graph reuses the parked scratch.
	if _, _, err := algorithms.PageRank(ctx, pg, 7, algorithms.DefaultResetProb); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != snapshot[i] {
			t.Fatalf("rank[%d] mutated by a later run: %v != %v", i, first[i], snapshot[i])
		}
	}
}
