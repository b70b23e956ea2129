package cutfit_test

import (
	"context"
	"fmt"
	"sort"

	"cutfit"
)

// ExampleSession_Advise is the paper's contribution as a workflow: ask the advisor
// which partitioning strategy fits each computation on a dataset, then check
// the recommendation by running the computation under every strategy and
// ranking them by the engine messages each run sent, broadcast plus reduce
// (* marks the advised one). The caching Session assigns and builds each
// strategy once for both algorithms.
func ExampleSession_Advise() {
	g := analog("youtube")
	ctx := context.Background()
	const parts = 128
	se := cutfit.NewSession(cutfit.SessionOptions{})
	for _, alg := range []string{"pagerank", "triangles"} {
		profile, err := cutfit.ProfileFor(alg)
		if err != nil {
			panic(err)
		}
		rec := se.Advise(g, profile, parts)
		fmt.Printf("%s: advisor recommends %s (optimize %s)\n", alg, rec.Strategy.Name(), rec.Metric)

		type measured struct {
			name string
			msgs int64
		}
		var ranking []measured
		for _, s := range cutfit.Strategies() {
			rep, err := se.Run(ctx, g, s, parts, alg, 10)
			if err != nil {
				panic(err)
			}
			ranking = append(ranking, measured{s.Name(), rep.BroadcastMsgs + rep.ReduceMsgs})
		}
		sort.SliceStable(ranking, func(i, j int) bool { return ranking[i].msgs < ranking[j].msgs })
		fmt.Print("  measured:")
		for _, r := range ranking {
			mark := ""
			if r.name == rec.Strategy.Name() {
				mark = "*"
			}
			fmt.Printf(" %s%s=%d", mark, r.name, r.msgs)
		}
		fmt.Println()
	}
	// Output:
	// pagerank: advisor recommends DC (optimize CommCost)
	//   measured: *DC=801920 CRVC=1168580 2D=1251570 1D=1273300 SC=1277390 RVC=1694700
	// triangles: advisor recommends CRVC (optimize Cut)
	//   measured: 1D=97086 SC=97385 DC=99886 *CRVC=102201 2D=118885 RVC=154837
}
