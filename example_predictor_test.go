package cutfit_test

import (
	"context"
	"fmt"

	"cutfit"
)

// ExampleTrainPredictor turns the paper's correlation result into a what-if
// tool: run PageRank under three partitionings of one dataset, fit the
// metric → time model, rank the partitionings of a different dataset by
// prediction alone, then run them to check.
func ExampleTrainPredictor() {
	ctx := context.Background()
	cfg := cutfit.ConfigI()
	simulatePR := func(g *cutfit.Graph, s cutfit.Strategy) float64 {
		pg, err := cutfit.Partition(g, s, cfg.NumPartitions)
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
		return b.TotalSecs()
	}

	train := analog("youtube")
	times := map[string]float64{}
	for _, name := range []string{"RVC", "2D", "DC"} {
		s, err := cutfit.StrategyByName(name)
		if err != nil {
			panic(err)
		}
		times[name] = simulatePR(train, s)
	}
	pred, _, err := cutfit.TrainPredictor(train, cutfit.Strategies(), cfg.NumPartitions, cutfit.ProfilePageRank, times)
	if err != nil {
		panic(err)
	}
	fmt.Println("fitted on youtube:", pred)

	test := analog("pocek")
	candidates := map[string]*cutfit.Metrics{}
	for _, s := range cutfit.Strategies() {
		m, err := cutfit.Measure(test, s, cfg.NumPartitions)
		if err != nil {
			panic(err)
		}
		candidates[s.Name()] = m
	}
	ranked, err := pred.RankByPrediction(candidates)
	if err != nil {
		panic(err)
	}
	fmt.Println("predicted ranking on pocek:", ranked)

	best, bestSecs := "", 0.0
	for _, s := range cutfit.Strategies() {
		if t := simulatePR(test, s); best == "" || t < bestSecs {
			best, bestSecs = s.Name(), t
		}
	}
	fmt.Printf("predicted best: %s, measured best: %s\n", ranked[0], best)
	// Output:
	// fitted on youtube: time ≈ 0.03349 + 9.729e-07·CommCost (R²=0.951, n=3)
	// predicted ranking on pocek: [2D SC DC 1D CRVC RVC]
	// predicted best: 2D, measured best: DC
}
