package cutfit_test

import (
	"context"
	"fmt"
	"sort"

	"cutfit"
)

// ExampleAdvise is the paper's contribution as a workflow: ask the advisor
// which partitioning strategy fits each computation on a dataset, then check
// the recommendation by running the computation under every strategy and
// ranking them by simulated time (* marks the advised one). The caching
// Session assigns and builds each strategy once for both algorithms.
func ExampleAdvise() {
	g := analog("youtube")
	ctx := context.Background()
	const parts = 128
	se := cutfit.NewSession(cutfit.SessionOptions{})
	for _, alg := range []string{"pagerank", "triangles"} {
		profile, err := cutfit.ProfileFor(alg)
		if err != nil {
			panic(err)
		}
		rec := cutfit.Advise(profile, cutfit.Facts(g), parts)
		fmt.Printf("%s: advisor recommends %s (optimize %s)\n", alg, rec.Strategy.Name(), rec.Metric)

		type measured struct {
			name string
			secs float64
		}
		var ranking []measured
		for _, s := range cutfit.Strategies() {
			rep, err := se.Run(ctx, g, s, parts, alg, 10)
			if err != nil {
				panic(err)
			}
			ranking = append(ranking, measured{s.Name(), rep.SimSecs})
		}
		sort.SliceStable(ranking, func(i, j int) bool { return ranking[i].secs < ranking[j].secs })
		fmt.Print("  measured:")
		for _, r := range ranking {
			mark := ""
			if r.name == rec.Strategy.Name() {
				mark = "*"
			}
			fmt.Printf(" %s%s=%.3fs", mark, r.name, r.secs)
		}
		fmt.Println()
	}
	// Output:
	// pagerank: advisor recommends DC (optimize CommCost)
	//   measured: *DC=0.097s CRVC=0.115s 2D=0.119s 1D=0.120s SC=0.120s RVC=0.140s
	// triangles: advisor recommends CRVC (optimize Cut)
	//   measured: *CRVC=0.052s DC=0.054s 2D=0.062s RVC=0.072s SC=0.108s 1D=0.109s
}
