package cutfit_test

import (
	"context"
	"fmt"

	"cutfit"
)

// ExampleRunHopDistances runs shortest paths on a road network, the workload
// the paper could not (GraphX ran out of memory on road networks for SSSP).
// Road vertex IDs follow geography, the locality the paper's SC/DC proposal
// assumes: CRVC reaches the lowest CommCost (it collocates both directions of
// each symmetric edge), RVC the highest, and SC/DC match 1D almost exactly,
// because modulo on grid-ordered IDs groups edges by source just as 1D's hash
// does. The enormous diameter shows in the superstep count.
func ExampleRunHopDistances() {
	g := analog("roadnet-pa")
	verts := g.Vertices()
	landmarks := []cutfit.VertexID{verts[0], verts[len(verts)/2], verts[len(verts)-1]}
	fmt.Printf("landmarks: %v\n", landmarks)

	ctx := context.Background()
	const parts = 64
	cfg := cutfit.ConfigI()
	cfg.NumPartitions = parts
	fmt.Println("strategy  CommCost  supersteps  reached%  simulated-time")
	for _, s := range cutfit.Strategies() {
		m, err := cutfit.Measure(g, s, parts)
		if err != nil {
			panic(err)
		}
		pg, err := cutfit.Partition(g, s, parts)
		if err != nil {
			panic(err)
		}
		hops, stats, err := cutfit.RunHopDistances(ctx, pg, landmarks, 0)
		if err != nil {
			panic(err)
		}
		b, err := cfg.Simulate(stats, cutfit.EstimateGraphBytes(g.NumEdges()))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s  %-8d  %-10d  %-8.1f  %.4fs\n", s.Name(), m.CommCost, stats.NumSupersteps(),
			100*float64(hops.Reached())/float64(hops.NumVertices()), b.TotalSecs())
	}
	// Output:
	// landmarks: [0 5407 10813]
	// strategy  CommCost  supersteps  reached%  simulated-time
	// RVC       59104     182         96.2      0.9492s
	// 1D        40567     182         96.2      0.9386s
	// 2D        50363     182         96.2      0.9447s
	// CRVC      29544     182         96.2      0.9349s
	// SC        41596     182         96.2      0.9391s
	// DC        41596     182         96.2      0.9405s
}
