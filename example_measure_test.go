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

// ExampleSession_Measure is the paper's core loop on the analog of its YouTube
// dataset: measure each strategy's partitioning (the §3.1 metrics), run ten
// PageRank iterations on it and count the engine messages the run sent
// (broadcast plus reduce). Lower CommCost mostly means fewer engine
// messages, the traffic behind the paper's Figure 3. SC and DC tie on
// CommCost, yet DC sends the fewest: PageRank's messages flow to each edge's
// destination, and DC keeps a destination's edges in one partition.
func ExampleSession_Measure() {
	g := analog("youtube")
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	ctx := context.Background()
	se := cutfit.NewSession(cutfit.SessionOptions{})
	const parts = 128
	fmt.Println("strategy  CommCost  Cut    Balance  engine-messages")
	for _, s := range cutfit.Strategies() {
		m, err := se.Measure(g, s, parts)
		if err != nil {
			panic(err)
		}
		pg, err := se.Partition(g, s, parts) // built from Measure's assignment
		if err != nil {
			panic(err)
		}
		_, stats, err := cutfit.Run(ctx, pg, "pagerank", cutfit.ServedParams(10))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s  %-8d  %-5d  %-7.2f  %d\n", s.Name(), m.CommCost, m.Cut, m.Balance,
			stats.TotalBroadcastMsgs()+stats.TotalReduceMsgs())
	}
	// Output:
	// graph: 11000 vertices, 61994 edges
	// strategy  CommCost  Cut    Balance  engine-messages
	// RVC       111065    11000  1.10     1694700
	// 1D        68937     11000  1.61     1273300
	// 2D        82164     10983  1.98     1251570
	// CRVC      58405     10976  1.15     1168580
	// SC        69192     11000  1.49     1277390
	// DC        69192     11000  1.49     801920
}
