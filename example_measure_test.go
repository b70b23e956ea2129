package cutfit_test

import (
	"context"
	"fmt"

	"cutfit"
)

// analog builds one of the paper's dataset analogs (cached per process).
func analog(name string) *cutfit.Graph {
	spec, err := cutfit.DatasetByName(name)
	if err != nil {
		panic(err)
	}
	g, err := spec.BuildCached()
	if err != nil {
		panic(err)
	}
	return g
}

// ExampleMeasure is the paper's core loop on the analog of its YouTube
// dataset: measure each strategy's partitioning (the §3.1 metrics), run ten
// PageRank iterations on it and simulate the run on configuration (i), the
// paper's cluster of 4 executors on 1 Gb/s with HDDs. Lower CommCost tracks
// lower PageRank time, as in the paper's Figure 3.
func ExampleMeasure() {
	g := analog("youtube")
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	ctx := context.Background()
	const parts = 128
	cfg := cutfit.ConfigI()
	fmt.Println("strategy  CommCost  Cut    Balance  simulated-PR-time")
	for _, s := range cutfit.Strategies() {
		m, err := cutfit.Measure(g, s, parts)
		if err != nil {
			panic(err)
		}
		pg, err := cutfit.Partition(g, s, parts)
		if err != nil {
			panic(err)
		}
		_, stats, err := cutfit.RunPageRank(ctx, pg, 10)
		if err != nil {
			panic(err)
		}
		b, err := cfg.Simulate(stats, cutfit.EstimateGraphBytes(g.NumEdges()))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s  %-8d  %-5d  %-7.2f  %.4fs\n", s.Name(), m.CommCost, m.Cut, m.Balance, b.TotalSecs())
	}
	// Output:
	// graph: 11000 vertices, 61994 edges
	// strategy  CommCost  Cut    Balance  simulated-PR-time
	// RVC       111065    11000  1.10     0.1399s
	// 1D        68937     11000  1.61     0.1198s
	// 2D        82164     10983  1.98     0.1188s
	// CRVC      58405     10976  1.15     0.1146s
	// SC        69192     11000  1.49     0.1199s
	// DC        69192     11000  1.49     0.0971s
}
