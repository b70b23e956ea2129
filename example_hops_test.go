package cutfit_test

import (
	"context"
	"fmt"

	"cutfit"
)

// ExampleRun runs shortest paths on a road network, the workload
// the paper could not (GraphX ran out of memory on road networks for SSSP).
// Road vertex IDs follow geography, the locality the paper's SC/DC proposal
// assumes: CRVC reaches the lowest CommCost (it collocates both directions of
// each symmetric edge), RVC the highest, and SC/DC match 1D almost exactly,
// because modulo on grid-ordered IDs groups edges by source just as 1D's hash
// does. The enormous diameter shows in the superstep count; the last column
// is each run's engine messages, broadcast plus reduce. Run returns sssp's
// values as a HopTable, one column per landmark.
func ExampleRun() {
	g := analog("roadnet-pa")
	verts := g.Vertices()
	landmarks := []cutfit.VertexID{verts[0], verts[len(verts)/2], verts[len(verts)-1]}
	fmt.Printf("landmarks: %v\n", landmarks)

	ctx := context.Background()
	se := cutfit.NewSession(cutfit.SessionOptions{})
	const parts = 64
	fmt.Println("strategy  CommCost  supersteps  reached%  engine-messages")
	for _, s := range cutfit.Strategies() {
		m, err := se.Measure(g, s, parts)
		if err != nil {
			panic(err)
		}
		pg, err := se.Partition(g, s, parts)
		if err != nil {
			panic(err)
		}
		values, stats, err := cutfit.Run(ctx, pg, "sssp", cutfit.Params{Landmarks: landmarks})
		if err != nil {
			panic(err)
		}
		hops := values.(cutfit.HopTable)
		fmt.Printf("%-8s  %-8d  %-10d  %-8.1f  %d\n", s.Name(), m.CommCost, stats.NumSupersteps(),
			100*float64(hops.Reached())/float64(hops.NumVertices()), stats.TotalBroadcastMsgs()+stats.TotalReduceMsgs())
	}
	// Output:
	// landmarks: [0 5407 10813]
	// strategy  CommCost  supersteps  reached%  engine-messages
	// RVC       59104     182         96.2      202005
	// 1D        40567     182         96.2      140205
	// 2D        50363     182         96.2      175679
	// CRVC      29544     182         96.2      116918
	// SC        41596     182         96.2      143212
	// DC        41596     182         96.2      150013
}
