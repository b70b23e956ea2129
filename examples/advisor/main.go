// Advisor: the paper's contribution as a workflow. For each of the four
// analytics algorithms, ask the advisor which partitioning strategy fits a
// given dataset, then verify the recommendation by running the actual
// computation under every strategy and ranking by simulated time.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"cutfit"
)

func main() {
	ctx := context.Background()
	const parts = 128
	// A caching session: each strategy is assigned and built once, however
	// many algorithms run on it.
	se := cutfit.NewSession(cutfit.SessionOptions{})

	for _, dsName := range []string{"pocek", "orkut"} {
		spec, err := cutfit.DatasetByName(dsName)
		if err != nil {
			log.Fatal(err)
		}
		g, err := spec.BuildCached()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s (V=%d, E=%d) ===\n", dsName, g.NumVertices(), g.NumEdges())

		for _, algName := range []string{"pagerank", "triangles"} {
			profile, err := cutfit.ProfileFor(algName)
			if err != nil {
				log.Fatal(err)
			}
			rec := cutfit.Advise(profile, cutfit.Facts(g), parts)
			fmt.Printf("\n%s: advisor recommends %s (optimize %s)\n  %s\n",
				algName, rec.Strategy.Name(), rec.Metric, rec.Reason)

			// Verify against reality: run under every strategy.
			type result struct {
				name string
				secs float64
			}
			var results []result
			for _, s := range cutfit.Strategies() {
				rep, err := se.Run(ctx, g, s, parts, algName, 10)
				if err != nil {
					log.Fatal(err)
				}
				results = append(results, result{s.Name(), rep.SimSecs})
			}
			sort.Slice(results, func(i, j int) bool { return results[i].secs < results[j].secs })
			fmt.Print("  measured ranking:")
			for _, r := range results {
				mark := ""
				if r.name == rec.Strategy.Name() {
					mark = "*"
				}
				fmt.Printf(" %s%s=%.3fs", mark, r.name, r.secs)
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
