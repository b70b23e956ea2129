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
	Edges int
	// IDLocality is true when consecutive vertex IDs are correlated with
	// graph locality (e.g. road networks with geographic ID order), which
	// the SC/DC modulo partitioners exploit.
	IDLocality bool
}

// Facts extracts GraphFacts from a graph (IDLocality cannot be derived
// from structure alone and defaults to false; see DetectIDLocality).
func Facts(g *graph.Graph) GraphFacts {
	return GraphFacts{Edges: g.NumEdges()}
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
// strategy and the metric sets of every candidate. The winner's assignment
// stays in the store that measured it, so building the winner re-partitions
// nothing.
type Selection struct {
	// Strategy is the candidate minimizing the profile's predictive metric.
	Strategy partition.Strategy
	// Results holds the §3.1 metric set of every candidate, keyed by
	// partition.KeyOf — the strategy name, except for parameterized
	// strategies (Hybrid:<t>), whose variants must not collapse into one
	// row.
	Results map[string]*metrics.Result
}

// SelectEmpirically measures every candidate strategy on g at numParts
// through the artifact store st — one edge-assignment pass per candidate,
// none for a candidate st already holds — and returns the strategy
// minimizing the profile's predictive metric. Repeated selection over one
// graph (different profiles, different callers, concurrent requests) reuses
// candidate assignments, and the winner's cached Assignment is already in
// place for the store's Built call. This is the "measure, then choose"
// workflow the paper recommends when a pre-computation pass is affordable.
func SelectEmpirically(st *store.Store, g *graph.Graph, candidates []partition.Strategy, numParts int, p Profile) (*Selection, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: no candidate strategies")
	}
	measured, err := measureCandidates(st, g, candidates, numParts)
	if err != nil {
		return nil, err
	}
	sel := &Selection{Results: make(map[string]*metrics.Result, len(candidates))}
	bestVal := 0.0
	for i, s := range candidates {
		m := measured[i]
		sel.Results[partition.KeyOf(s)] = m
		v, err := m.MetricByName(p.Metric)
		if err != nil {
			return nil, err
		}
		if sel.Strategy == nil || v < bestVal {
			sel.Strategy = s
			bestVal = v
		}
	}
	return sel, nil
}

// measureCandidates measures every candidate on g through the store's
// single-flight Metrics, concurrently, on GOMAXPROCS goroutines. The result is
// aligned with candidates, and so is the error: of several failing
// candidates the first in candidate order is reported, whichever failed
// first. Nothing a caller sees depends on which candidate finished when —
// each measurement is a function of (g, strategy, numParts) alone, and
// callers pick from the slice in candidate order. (The graph's lazy views
// they share are each built by whichever needs one first, under the graph's
// own once-guards; a selection the store answers builds none.)
func measureCandidates(st *store.Store, g *graph.Graph, candidates []partition.Strategy, numParts int) ([]*metrics.Result, error) {
	out := make([]*metrics.Result, len(candidates))
	errs := make([]error, len(candidates))
	if err := par.ForEach(context.TODO(), par.DefaultParallelism(), len(candidates), func(i int) {
		out[i], errs[i] = st.Metrics(g, candidates[i], numParts)
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
// a robust default with window = graph.LocalityWindow, the window whose
// count the graph caches: see Graph.NearIDEdges).
func DetectIDLocality(g *graph.Graph, window int64, threshold float64) bool {
	total := g.NumEdges()
	if total == 0 {
		return false
	}
	return float64(g.NearIDEdges(window))/float64(total) >= threshold
}
