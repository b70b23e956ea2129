// Package core implements the paper's contribution as a library: tailoring
// the partitioning strategy to the computation and the dataset ("cut to
// fit"). It encodes the selection heuristics distilled in §4 —
//
//   - algorithms whose complexity is dominated by edges and that exchange
//     small per-vertex state every superstep (PageRank, Connected
//     Components, SSSP) should choose partitioners by the Communication
//     Cost metric: DC for small graphs, 2D for large ones (2D achieves
//     better locality on large datasets, and dominates at fine
//     granularity);
//   - algorithms that keep a lot of per-vertex state and per-vertex
//     computation (Triangle Count) should be compared using the Cut
//     Vertices metric, where strategy differences are small;
//
// — and an empirical selector that measures candidate partitionings on the
// actual graph and ranks them by the algorithm-appropriate metric.
package core

import (
	"context"
	"fmt"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/par"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/store"
)

// Profile classifies an algorithm by its communication structure, which
// determines the predictive partitioning metric. Each served algorithm's
// table entry (internal/algorithms) carries one.
type Profile = algorithms.Profile

// Built-in profiles for the paper's four algorithms.
var (
	ProfilePageRank = algorithms.ProfilePageRank
	ProfileCC       = algorithms.ProfileCC
	ProfileTR       = algorithms.ProfileTR
	ProfileSSSP     = algorithms.ProfileSSSP
)

// ProfileFor returns the profile of a served algorithm, by the name its
// table entry carries.
func ProfileFor(alg string) (Profile, error) {
	e, err := algorithms.Lookup(alg)
	if err != nil {
		return Profile{}, err
	}
	return e.Profile, nil
}

// GraphFacts are the dataset properties the heuristic advisor consults.
type GraphFacts struct {
	Vertices int
	Edges    int
	// Symmetric is true for (effectively) undirected graphs.
	Symmetric bool
	// IDLocality is true when consecutive vertex IDs are correlated with
	// graph locality (e.g. road networks with geographic ID order), which
	// the SC/DC modulo partitioners exploit.
	IDLocality bool
}

// Facts extracts GraphFacts from a graph (IDLocality cannot be derived
// from structure alone and defaults to false; see DetectIDLocality).
func Facts(g *graph.Graph) GraphFacts {
	return GraphFacts{
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		Symmetric: g.SymmetryPct() > 99.0,
	}
}

// AdvisorConfig tunes the heuristic thresholds.
type AdvisorConfig struct {
	// LargeEdgeThreshold separates "small" from "large" datasets. The
	// paper's large datasets (Orkut, socLiveJournal, follow-*) start at
	// ~69M edges; at this repository's ~1/100 analog scale the equivalent
	// default is 700k.
	LargeEdgeThreshold int
}

// DefaultAdvisorConfig returns thresholds matched to the analog datasets.
func DefaultAdvisorConfig() AdvisorConfig {
	return AdvisorConfig{LargeEdgeThreshold: 700_000}
}

// Recommendation is the advisor's output.
type Recommendation struct {
	Strategy partition.Strategy
	// Metric is the partitioning metric the choice optimizes.
	Metric string
	// Reason explains the recommendation in the paper's terms.
	Reason string
}

// Advise recommends a partitioning strategy for the given algorithm
// profile, dataset facts and partition count, following §4's heuristics.
func Advise(p Profile, f GraphFacts, numParts int, cfg AdvisorConfig) Recommendation {
	if cfg.LargeEdgeThreshold <= 0 {
		cfg = DefaultAdvisorConfig()
	}
	large := f.Edges >= cfg.LargeEdgeThreshold
	if !p.EdgeBound {
		// Triangle-count-like: compare by Cut; differences between
		// strategies are small, and the canonical cut keeps both
		// orientations of each undirected pair together, which the
		// neighbor-set shipping benefits from.
		return Recommendation{
			Strategy: partition.CanonicalRandomVertexCut(),
			Metric:   p.Metric,
			Reason: "per-vertex-state-heavy algorithm: compare strategies by Cut vertices; " +
				"CRVC collocates both orientations of every edge, and strategy differences are within noise",
		}
	}
	switch {
	case large:
		return Recommendation{
			Strategy: partition.EdgePartition2D(),
			Metric:   p.Metric,
			Reason: "communication-bound algorithm on a large dataset: 2D bounds replication by 2·sqrt(N) " +
				"and achieves the lowest communication cost at scale",
		}
	case f.IDLocality:
		return Recommendation{
			Strategy: partition.DestinationCut(),
			Metric:   p.Metric,
			Reason: "communication-bound algorithm on a small dataset whose vertex IDs encode locality: " +
				"DC exploits ID locality to cut communication cost",
		}
	default:
		return Recommendation{
			Strategy: partition.DestinationCut(),
			Metric:   p.Metric,
			Reason: "communication-bound algorithm on a small dataset: the paper finds DC best for " +
				"smaller datasets (2D and DC both optimize communication cost)",
		}
	}
}

// Selection is the outcome of empirical strategy selection: the winning
// strategy together with the Assignment it was measured from — so running
// the winner never re-partitions — and the metric sets of every candidate.
type Selection struct {
	// Strategy is the candidate minimizing the profile's predictive metric.
	Strategy partition.Strategy
	// Assignment is the winner's edge assignment, produced by the single
	// measurement pass and ready to hand to the pregel builder.
	Assignment *partition.Assignment
	// Results holds the §3.1 metric set of every candidate, keyed by
	// partition.KeyOf — the strategy name, except for parameterized
	// strategies (Hybrid:<t>), whose variants must not collapse into one
	// row.
	Results map[string]*metrics.Result
}

// Build constructs the engine-ready partitioned topology of the winning
// strategy straight from the retained Assignment — zero additional
// partitioning passes after selection.
func (s *Selection) Build(opts pregel.BuildOptions) (*pregel.PartitionedGraph, error) {
	return pregel.NewPartitionedGraphFromAssignment(s.Assignment, opts)
}

// SelectEmpirically assigns g with every candidate strategy at numParts —
// exactly one edge-assignment pass per candidate — measures the profile's
// predictive metric from each assignment, and returns the minimizing
// strategy with its Assignment retained, so the subsequent engine build
// costs no further partitioning. This is the "measure, then choose"
// workflow the paper recommends when a pre-computation pass is affordable.
func SelectEmpirically(g *graph.Graph, candidates []partition.Strategy, numParts int, p Profile) (*Selection, error) {
	return SelectEmpiricallyIn(nil, g, candidates, numParts, p)
}

// SelectEmpiricallyIn is SelectEmpirically routed through an artifact
// store: each candidate's assignment and metric set come from st, so
// repeated selection over one graph — different profiles, different
// callers, concurrent requests — reuses candidate assignments instead of
// re-assigning, and the winner's cached Assignment is already in place for
// the subsequent store Built call. A nil store computes directly (the
// one-shot batch path).
func SelectEmpiricallyIn(st *store.Store, g *graph.Graph, candidates []partition.Strategy, numParts int, p Profile) (*Selection, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: no candidate strategies")
	}
	measured, err := measureCandidates(st, g, candidates, numParts, true)
	if err != nil {
		return nil, err
	}
	sel := &Selection{Results: make(map[string]*metrics.Result, len(candidates))}
	bestVal := 0.0
	for i, s := range candidates {
		m := measured[i].metrics
		sel.Results[partition.KeyOf(s)] = m
		v, err := m.MetricByName(p.Metric)
		if err != nil {
			return nil, err
		}
		if sel.Strategy == nil || v < bestVal {
			sel.Strategy = s
			sel.Assignment = measured[i].assignment
			bestVal = v
		}
	}
	return sel, nil
}

// measurement is what measuring one candidate yields.
type measurement struct {
	assignment *partition.Assignment // nil unless asked for
	metrics    *metrics.Result
}

// measureCandidates measures every candidate on g, concurrently: on as many
// goroutines as the store's builds use (par.DefaultParallelism without a
// store or a setting), each candidate through the store's single-flight
// Assignment and Metrics when there is a store, directly otherwise. The
// result is aligned with candidates, and so is the error: of several
// failing candidates the first in candidate order is reported, whichever
// failed first. Nothing a caller sees depends on which candidate finished
// when — each measurement is a function of (g, strategy, numParts) alone,
// and callers pick from the slice in candidate order. (The graph's lazy
// views they share are each built by whichever needs one first, under the
// graph's own once-guards; a selection the store answers builds none.)
func measureCandidates(st *store.Store, g *graph.Graph, candidates []partition.Strategy, numParts int, withAssignments bool) ([]measurement, error) {
	workers := 0
	if st != nil {
		workers = st.BuildOptions().Parallelism
	}
	if workers < 1 {
		workers = par.DefaultParallelism()
	}
	out := make([]measurement, len(candidates))
	errs := make([]error, len(candidates))
	if err := par.ForEach(context.TODO(), workers, len(candidates), func(i int) {
		var (
			s   = candidates[i]
			a   *partition.Assignment
			m   *metrics.Result
			err error
		)
		if st == nil {
			if a, err = partition.Assign(g, s, numParts); err == nil {
				m, err = metrics.FromAssignment(a)
			}
		} else {
			if withAssignments {
				a, err = st.Assignment(g, s, numParts)
			}
			if err == nil {
				m, err = st.Metrics(g, s, numParts)
			}
		}
		if !withAssignments {
			a = nil
		}
		out[i], errs[i] = measurement{a, m}, err
	}); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: measuring %s: %w", candidates[i].Name(), err)
		}
	}
	return out, nil
}

// DetectIDLocality estimates whether consecutive vertex IDs are correlated
// with adjacency by measuring the fraction of edges whose endpoint IDs
// differ by at most window. Grid-ordered road networks score high; hashed
// or crawled social graphs score low. Returns true above threshold (0.5 is
// a robust default with window = ~2 rows of a grid).
func DetectIDLocality(g *graph.Graph, window int64, threshold float64) bool {
	edges := g.Edges()
	if len(edges) == 0 {
		return false
	}
	near := 0
	for _, e := range edges {
		d := int64(e.Src) - int64(e.Dst)
		if d < 0 {
			d = -d
		}
		if d <= window {
			near++
		}
	}
	return float64(near)/float64(len(edges)) >= threshold
}
