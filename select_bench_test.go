// Benchmarks for the assignment-centric selection pipeline: the cost of
// empirically choosing a strategy and then actually running it. These are
// the paths the Assignment refactor makes single-pass; before/after numbers
// are recorded in CHANGES.md.
package cutfit_test

import (
	"context"
	"testing"

	"cutfit"
	"cutfit/internal/datasets"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

func benchGraph(b *testing.B, name string) *cutfit.Graph {
	b.Helper()
	spec, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.BuildCached()
	if err != nil {
		b.Fatal(err)
	}
	// Warm the cached derived views so every iteration measures the
	// pipeline, not one-time graph index construction.
	g.EdgeEndpointIndices()
	return g
}

// BenchmarkSelectEmpirically measures the full "measure, choose, build the
// winner" advisor workflow on the youtube analog at the paper's coarse
// granularity: a fresh Session measures every candidate strategy, selects
// the CommCost winner, and builds the winning partitioned graph, ready to
// run, from the assignment the selection cached.
func BenchmarkSelectEmpirically(b *testing.B) {
	g := benchGraph(b, "youtube")
	const numParts = 128
	for _, tc := range []struct {
		name       string
		candidates []cutfit.Strategy
	}{
		{"paper6", cutfit.Strategies()},
		{"extended8", cutfit.ExtendedStrategies()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				se := cutfit.NewSession(cutfit.SessionOptions{})
				sel, err := se.Select(g, tc.candidates, numParts, cutfit.ProfilePageRank)
				if err != nil {
					b.Fatal(err)
				}
				pg, err := se.Partition(g, sel.Strategy, numParts)
				if err != nil {
					b.Fatal(err)
				}
				if pg.NumParts != numParts || len(sel.Results) != len(tc.candidates) {
					b.Fatal("unexpected selection outcome")
				}
			}
		})
	}
}

// BenchmarkMeasureThenRun measures the "characterize, then execute" path
// for a single strategy: compute the §3.1 metric set for 2D on the youtube
// analog, build the partitioned graph, and run 5 PageRank supersteps.
func BenchmarkMeasureThenRun(b *testing.B) {
	g := benchGraph(b, "youtube")
	const numParts = 128
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := partition.Assign(g, cutfit.EdgePartition2D(), numParts)
		if err != nil {
			b.Fatal(err)
		}
		pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		m := pg.Metrics()
		if _, _, err := runAs[[]float64](ctx, pg, "pagerank", cutfit.ServedParams(5)); err != nil {
			b.Fatal(err)
		}
		if m.CommCost == 0 {
			b.Fatal("metrics should be non-trivial")
		}
	}
}
