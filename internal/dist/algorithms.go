package dist

import (
	"context"
	"fmt"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// The typed entry points mirror internal/algorithms' signatures exactly, so
// Session can swap a local call for a distributed one per run. Programs are
// built with the same constructors the local path uses; only the Exchanger
// differs.

// PageRank runs static PageRank on the pool, bit-identical to
// algorithms.PageRank on the same partitioned graph.
func PageRank(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, numIter int, resetProb float64) ([]float64, *pregel.RunStats, error) {
	if numIter <= 0 {
		return nil, nil, fmt.Errorf("dist: PageRank needs numIter > 0, got %d", numIter)
	}
	if resetProb < 0 || resetProb >= 1 {
		return nil, nil, fmt.Errorf("dist: PageRank resetProb %g out of [0,1)", resetProb)
	}
	prog := algorithms.PageRankProgram(numIter, resetProb, pg.G.OutDegrees())
	spec := RunSpec{Algorithm: "pagerank", Iters: numIter, ResetProb: resetProb}
	return runDist(ctx, pool, pg, prog, spec, f64Codec{}, f64Codec{})
}

// ConnectedComponents runs label propagation on the pool, bit-identical to
// algorithms.ConnectedComponents.
func ConnectedComponents(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, maxIter int) ([]graph.VertexID, *pregel.RunStats, error) {
	prog := algorithms.ConnectedComponentsProgram(maxIter)
	spec := RunSpec{Algorithm: "cc", Iters: maxIter}
	return runDist(ctx, pool, pg, prog, spec, vidCodec{}, vidCodec{})
}

// DynamicPageRank runs until-convergence PageRank on the pool,
// bit-identical to algorithms.DynamicPageRank.
func DynamicPageRank(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, tol, resetProb float64, maxIter int) ([]float64, *pregel.RunStats, error) {
	if tol <= 0 {
		return nil, nil, fmt.Errorf("dist: DynamicPageRank needs tol > 0, got %g", tol)
	}
	if resetProb < 0 || resetProb >= 1 {
		return nil, nil, fmt.Errorf("dist: DynamicPageRank resetProb %g out of [0,1)", resetProb)
	}
	prog := algorithms.DynamicPageRankProgram(tol, resetProb, maxIter, pg.G.OutDegrees())
	spec := RunSpec{Algorithm: "dynamicpr", Iters: maxIter, Tol: tol, ResetProb: resetProb}
	vals, stats, err := runDist(ctx, pool, pg, prog, spec, prStateCodec{}, f64Codec{})
	if err != nil {
		return nil, nil, err
	}
	ranks := make([]float64, len(vals))
	for i, v := range vals {
		ranks[i] = v.Rank
	}
	return ranks, stats, nil
}
