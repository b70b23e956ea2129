// Package bench is the experiment harness: it drives the full grid of
// (dataset × partitioning strategy × cluster configuration) runs for each
// of the paper's four algorithms, collects partitioning metrics, simulated
// execution times and engine statistics, and regenerates every table and
// figure of the paper's evaluation (§4, Appendix A).
package bench

import (
	"context"
	"fmt"
	"time"

	"cutfit/internal/algorithms"
	"cutfit/internal/cluster"
	"cutfit/internal/datasets"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/rng"
)

// Algorithm names one of the paper's four analytics computations.
type Algorithm string

// The four algorithms of §3.2.
const (
	PageRank            Algorithm = "pagerank"
	ConnectedComponents Algorithm = "cc"
	Triangles           Algorithm = "triangles"
	SSSP                Algorithm = "sssp"
)

// Algorithms returns the four algorithms in paper order.
func Algorithms() []Algorithm {
	return []Algorithm{PageRank, ConnectedComponents, Triangles, SSSP}
}

// Experiment is one correlation experiment: an algorithm run over a grid
// of datasets, strategies and cluster configurations.
type Experiment struct {
	Algorithm  Algorithm
	Datasets   []datasets.Spec
	Strategies []partition.Strategy
	Configs    []cluster.Config

	// PRIterations and CCIterations bound the iterative algorithms; the
	// paper runs both for 10 iterations.
	PRIterations int
	CCIterations int
	// SSSPLandmarks is the number of randomly selected source vertices per
	// dataset; the paper uses 5 and averages.
	SSSPLandmarks int
	// Seed drives landmark selection.
	Seed uint64

	// Build tunes partitioned-graph construction and engine execution for
	// every grid cell (worker parallelism, engine buffer reuse). The zero
	// value uses the engine defaults.
	Build pregel.BuildOptions
}

// DefaultExperiment returns the paper's experimental setup for the given
// algorithm: all nine datasets (road networks excluded for SSSP, which ran
// out of memory on them in the paper), the six strategies, configurations
// (i) and (ii).
func DefaultExperiment(alg Algorithm) Experiment {
	specs := datasets.Suite()
	if alg == SSSP {
		var kept []datasets.Spec
		for _, s := range specs {
			if !s.Road {
				kept = append(kept, s)
			}
		}
		specs = kept
	}
	return Experiment{
		Algorithm:     alg,
		Datasets:      specs,
		Strategies:    partition.All(),
		Configs:       []cluster.Config{cluster.ConfigI(), cluster.ConfigII()},
		PRIterations:  10,
		CCIterations:  10,
		SSSPLandmarks: 5,
		Seed:          0x5EED,
	}
}

// Run is the outcome of one (dataset, strategy, config) cell.
type Run struct {
	Dataset  string
	Strategy string
	Config   string
	NumParts int

	Metrics *metrics.Result
	Stats   *pregel.RunStats
	Sim     cluster.Breakdown
	// SimSecs is the simulated execution time (the figure's y axis).
	SimSecs float64
	// WallSecs is the real wall-clock time of the in-process parallel
	// execution, reported for reference.
	WallSecs float64
}

// Result collects all runs of an experiment.
type Result struct {
	Algorithm Algorithm
	Runs      []Run
}

// Validate reports whether the experiment is well formed.
func (e *Experiment) Validate() error {
	if len(e.Datasets) == 0 || len(e.Strategies) == 0 || len(e.Configs) == 0 {
		return fmt.Errorf("bench: experiment needs datasets, strategies and configs")
	}
	if _, err := algorithms.Lookup(string(e.Algorithm)); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if e.Algorithm == PageRank && e.PRIterations <= 0 {
		return fmt.Errorf("bench: PageRank needs positive iterations")
	}
	if e.Algorithm == SSSP && e.SSSPLandmarks <= 0 {
		return fmt.Errorf("bench: SSSP needs at least one landmark")
	}
	return nil
}

// Run executes the full grid and returns the collected results.
func (e *Experiment) Run(ctx context.Context) (*Result, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Algorithm: e.Algorithm}
	for _, spec := range e.Datasets {
		g, err := spec.BuildCached()
		if err != nil {
			return nil, err
		}
		landmarks := pickLandmarks(g, e.SSSPLandmarks, e.Seed)
		for _, cfg := range e.Configs {
			for _, strat := range e.Strategies {
				run, err := e.runCell(ctx, g, spec.Name, strat, cfg, landmarks)
				if err != nil {
					return nil, fmt.Errorf("bench: %s/%s/%s/%s: %w",
						e.Algorithm, spec.Name, strat.Name(), cfg.Name, err)
				}
				res.Runs = append(res.Runs, run)
			}
		}
	}
	return res, nil
}

// runCell executes one grid cell through the shared single-pass pipeline:
// assign once, build the engine topology from the assignment, read the
// §3.1 metrics off the built topology (no separate replica-bitset scan),
// run, simulate.
func (e *Experiment) runCell(ctx context.Context, g *graph.Graph, dataset string,
	strat partition.Strategy, cfg cluster.Config, landmarks []graph.VertexID) (Run, error) {

	a, err := partition.Assign(g, strat, cfg.NumPartitions)
	if err != nil {
		return Run{}, err
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, e.Build)
	if err != nil {
		return Run{}, err
	}
	m := pg.Metrics()

	entry, err := algorithms.Lookup(string(e.Algorithm))
	if err != nil {
		return Run{}, err
	}
	params := algorithms.Params{ResetProb: algorithms.DefaultResetProb}
	switch e.Algorithm {
	case PageRank:
		params.Iters = e.PRIterations
	case ConnectedComponents:
		params.Iters = e.CCIterations
	}
	// One run per cell — except Shortest Paths, which runs once per landmark
	// and averages, mirroring the paper's average over 5 source vertices.
	runs := [][]graph.VertexID{nil}
	if e.Algorithm == SSSP {
		runs = runs[:0]
		for _, l := range landmarks {
			runs = append(runs, []graph.VertexID{l})
		}
	}
	graphBytes := cluster.EstimateGraphBytes(g.NumEdges())
	start := time.Now()
	var acc cluster.Breakdown
	merged := &pregel.RunStats{Converged: true}
	for _, lm := range runs {
		params.Landmarks = lm
		_, stats, err := entry.Run(ctx, pg, params)
		if err != nil {
			return Run{}, err
		}
		b, err := cfg.Simulate(stats, graphBytes)
		if err != nil {
			return Run{}, err
		}
		acc.LoadSecs += b.LoadSecs
		acc.ComputeSecs += b.ComputeSecs
		acc.NetworkSecs += b.NetworkSecs
		acc.BarrierSecs += b.BarrierSecs
		merged.Supersteps = append(merged.Supersteps, stats.Supersteps...)
		merged.Converged = merged.Converged && stats.Converged
	}
	n := float64(len(runs))
	breakdown := cluster.Breakdown{
		LoadSecs:    acc.LoadSecs / n,
		ComputeSecs: acc.ComputeSecs / n,
		NetworkSecs: acc.NetworkSecs / n,
		BarrierSecs: acc.BarrierSecs / n,
	}
	run := e.finishRun(dataset, strat, cfg, m, merged, breakdown, start)
	run.WallSecs /= n
	return run, nil
}

func (e *Experiment) finishRun(dataset string, strat partition.Strategy, cfg cluster.Config,
	m *metrics.Result, stats *pregel.RunStats, b cluster.Breakdown, start time.Time) Run {
	return Run{
		Dataset:  dataset,
		Strategy: strat.Name(),
		Config:   cfg.Name,
		NumParts: cfg.NumPartitions,
		Metrics:  m,
		Stats:    stats,
		Sim:      b,
		SimSecs:  b.TotalSecs(),
		WallSecs: time.Since(start).Seconds(),
	}
}

// pickLandmarks deterministically selects n distinct vertices of g.
func pickLandmarks(g *graph.Graph, n int, seed uint64) []graph.VertexID {
	verts := g.Vertices()
	if n <= 0 || len(verts) == 0 {
		return nil
	}
	if n > len(verts) {
		n = len(verts)
	}
	r := rng.New(seed)
	seen := make(map[graph.VertexID]struct{}, n)
	out := make([]graph.VertexID, 0, n)
	for len(out) < n {
		v := verts[r.Intn(len(verts))]
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
