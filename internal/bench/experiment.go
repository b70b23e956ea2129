// Package bench is the experiment harness: it drives the full grid of
// (dataset × partitioning strategy × cluster configuration) runs for any
// served algorithm, collects partitioning metrics, simulated execution times
// and engine statistics, and regenerates every table and figure of the
// paper's evaluation (§4, Appendix A).
package bench

import (
	"context"
	"fmt"
	"slices"

	"cutfit/internal/algorithms"
	"cutfit/internal/cluster"
	"cutfit/internal/datasets"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/rng"
)

// Figure is how the paper ran one served algorithm for its execution-time
// figure (§4).
type Figure struct {
	Alg   string // the served-algorithm table's name
	Title string
	// NoRoads leaves out the road networks, on which the paper's GraphX
	// setup ran out of memory.
	NoRoads bool
	// Sources is how many random source vertices each cell runs from and
	// averages over; 0 runs once, from the algorithm's default.
	Sources int
}

// Figures are the paper's Figures 3–6, in paper order.
var Figures = []Figure{
	{Alg: "pagerank", Title: "Figure 3 (PageRank)"},
	{Alg: "cc", Title: "Figure 4 (Connected Components)"},
	{Alg: "triangles", Title: "Figure 5 (Triangle Count)"},
	{Alg: "sssp", Title: "Figure 6 (SSSP)", NoRoads: true, Sources: 5},
}

// FigureOf returns the figure of a served algorithm.
func FigureOf(alg string) (Figure, error) {
	if _, err := algorithms.Lookup(alg); err != nil {
		return Figure{}, fmt.Errorf("bench: %w", err)
	}
	for _, f := range Figures {
		if f.Alg == alg {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("bench: the paper has no figure for %s", alg)
}

// Experiment returns the paper's setup for the figure: the nine datasets
// (less the road networks under NoRoads), the six strategies, configurations
// (i) and (ii), 10 iterations.
func (f Figure) Experiment() Experiment {
	return Experiment{
		Algorithm: f.Alg,
		Datasets: slices.DeleteFunc(datasets.Suite(), func(s datasets.Spec) bool {
			return f.NoRoads && s.Road
		}),
		Strategies: partition.All(),
		Configs:    []cluster.Config{cluster.ConfigI(), cluster.ConfigII()},
		Iters:      10,
		Sources:    f.Sources,
		Seed:       0x5EED,
	}
}

// InfraExperiment is the §4 infrastructure experiment's grid: Figure 3's
// PageRank on follow-dec under configurations (ii), (iii) and (iv). The
// three share one partition count, so Run runs each strategy once and prices
// it three times; Result.Infra reduces the result.
func InfraExperiment() Experiment {
	e := Figures[0].Experiment()
	e.Datasets = slices.DeleteFunc(e.Datasets, func(s datasets.Spec) bool { return s.Name != "follow-dec" })
	e.Configs = []cluster.Config{cluster.ConfigII(), cluster.ConfigIII(), cluster.ConfigIV()}
	return e
}

// Experiment is one correlation experiment: an algorithm run over a grid
// of datasets, strategies and cluster configurations.
type Experiment struct {
	Algorithm  string // a served algorithm's name
	Datasets   []datasets.Spec
	Strategies []partition.Strategy
	Configs    []cluster.Config

	// Iters caps the iterative algorithms; the paper runs 10.
	Iters int
	// Sources is the number of randomly selected source vertices per
	// dataset, each run separately and averaged (the paper's SSSP uses 5);
	// 0 runs once.
	Sources int
	// Seed drives source selection.
	Seed uint64
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
}

// Result collects all runs of an experiment.
type Result struct {
	Algorithm string
	Runs      []Run
}

// Validate reports whether the experiment is well formed.
func (e *Experiment) Validate() error {
	if len(e.Datasets) == 0 || len(e.Strategies) == 0 || len(e.Configs) == 0 {
		return fmt.Errorf("bench: experiment needs datasets, strategies and configs")
	}
	entry, err := algorithms.Lookup(e.Algorithm)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return entry.Check(algorithms.ServedParams(e.Iters))
}

// cell is one measured (dataset, strategy, partition count): its metrics
// and the statistics of each of its runs, which every configuration with
// that partition count prices.
type cell struct {
	metrics *metrics.Result
	stats   []*pregel.RunStats
	merged  *pregel.RunStats
}

// Run executes the grid and returns its runs in dataset, config, strategy
// order. Each (dataset, strategy, partition count) is assigned, built and
// run once, however many configurations share the partition count.
func (e *Experiment) Run(ctx context.Context) (*Result, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	entry, _ := algorithms.Lookup(e.Algorithm) // Validate resolved it
	res := &Result{Algorithm: e.Algorithm}
	for _, spec := range e.Datasets {
		g, err := spec.BuildCached()
		if err != nil {
			return nil, err
		}
		sources := pickLandmarks(g, e.Sources, e.Seed)
		graphBytes := cluster.EstimateGraphBytes(g.NumEdges())
		cells := map[int][]cell{}
		for _, cfg := range e.Configs {
			measured, ok := cells[cfg.NumPartitions]
			if !ok {
				measured = make([]cell, len(e.Strategies))
				for i, strat := range e.Strategies {
					if measured[i], err = e.measure(ctx, entry, g, strat, cfg.NumPartitions, sources); err != nil {
						return nil, fmt.Errorf("bench: %s/%s/%s/%d: %w",
							e.Algorithm, spec.Name, strat.Name(), cfg.NumPartitions, err)
					}
				}
				cells[cfg.NumPartitions] = measured
			}
			for i, strat := range e.Strategies {
				b, err := measured[i].price(cfg, graphBytes)
				if err != nil {
					return nil, fmt.Errorf("bench: %s/%s/%s/%s: %w",
						e.Algorithm, spec.Name, strat.Name(), cfg.Name, err)
				}
				res.Runs = append(res.Runs, Run{
					Dataset:  spec.Name,
					Strategy: strat.Name(),
					Config:   cfg.Name,
					NumParts: cfg.NumPartitions,
					Metrics:  measured[i].metrics,
					Stats:    measured[i].merged,
					Sim:      b,
					SimSecs:  b.TotalSecs(),
				})
			}
		}
	}
	return res, nil
}

// measure runs one cell through the shared single-pass pipeline: assign
// once, build the engine topology from the assignment with the serving
// default (buffer reuse on), read the §3.1 metrics off the built topology,
// run — once per source, or once.
func (e *Experiment) measure(ctx context.Context, entry *algorithms.Entry, g *graph.Graph,
	strat partition.Strategy, numParts int, sources []graph.VertexID) (cell, error) {

	a, err := partition.Assign(g, strat, numParts)
	if err != nil {
		return cell{}, err
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{ReuseBuffers: true})
	if err != nil {
		return cell{}, err
	}
	c := cell{metrics: pg.Metrics(), merged: &pregel.RunStats{Converged: true}}
	params := algorithms.ServedParams(e.Iters)
	runs := [][]graph.VertexID{nil}
	if len(sources) > 0 {
		runs = runs[:0]
		for _, s := range sources {
			runs = append(runs, []graph.VertexID{s})
		}
	}
	for _, lm := range runs {
		params.Landmarks = lm
		_, stats, err := entry.Run(ctx, pg, params)
		if err != nil {
			return cell{}, err
		}
		c.stats = append(c.stats, stats)
		c.merged.Supersteps = append(c.merged.Supersteps, stats.Supersteps...)
		c.merged.Converged = c.merged.Converged && stats.Converged
	}
	return c, nil
}

// price simulates the cell's runs on cfg and averages them.
func (c cell) price(cfg cluster.Config, graphBytes int64) (cluster.Breakdown, error) {
	var acc cluster.Breakdown
	for _, stats := range c.stats {
		b, err := cfg.Simulate(stats, graphBytes)
		if err != nil {
			return cluster.Breakdown{}, err
		}
		acc.LoadSecs += b.LoadSecs
		acc.ComputeSecs += b.ComputeSecs
		acc.NetworkSecs += b.NetworkSecs
		acc.BarrierSecs += b.BarrierSecs
	}
	n := float64(len(c.stats))
	return cluster.Breakdown{
		LoadSecs:    acc.LoadSecs / n,
		ComputeSecs: acc.ComputeSecs / n,
		NetworkSecs: acc.NetworkSecs / n,
		BarrierSecs: acc.BarrierSecs / n,
	}, nil
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
