// Package cutfit is the public API of the Cut-to-Fit graph partitioning
// library, a from-scratch Go reproduction of "Cut to Fit: Tailoring the
// Partitioning to the Computation" (Kolokasis & Pratikakis).
//
// The paper's workflow is one pipeline: partition a graph with a strategy,
// measure the §3.1 quality metrics, choose, run the computation. The library
// exposes it as one handle and one call per computation. A Session holds the
// pipeline behind a size-bounded, single-flight artifact cache organized
// around one artifact, the Assignment — the validated edge→partition mapping
// a strategy produces in a single pass — from which the metrics
// (Session.Measure), the engine topology (Session.Partition) and empirical
// strategy selection (Session.Select) are all derived, so measuring, choosing
// and then running a strategy costs one assignment pass in total. Run executes
// a served algorithm on a built topology; RunProgram executes a custom vertex
// program. A built PartitionedGraph also reports its own metric set
// (PartitionedGraph.Metrics) without any extra scan.
//
// The library provides:
//
//   - an in-memory directed graph with exact structural statistics
//     (Graph, LoadEdgeList, Stats);
//   - the six vertex-cut partitioning strategies of the paper — RVC, 1D,
//     2D, CRVC, SC, DC — plus streaming Greedy/HDRF extensions
//     (Strategies, StrategyByName) and extension partitioners (HybridCut,
//     RangeCut, ExtendedStrategies);
//   - a GraphX-style vertex-cut Pregel engine that executes computations
//     in parallel while counting all cross-partition traffic, with the
//     served algorithms — pagerank, dynamicpr, cc, triangles and sssp —
//     behind Run and Session.Run;
//   - the paper's contribution as a library: two ways to tailor the
//     partitioning strategy to the computation and the dataset — an
//     advisor that applies the paper's §4 rules (Session.Advise)
//     and an empirical selector that measures every candidate and takes
//     the one minimizing the algorithm's predictive metric
//     (Session.Select);
//   - the generic engine itself (Program, RunProgram) for writing custom
//     vertex programs, with panic-safe execution and an OnSuperstep
//     monitoring/halting hook;
//   - deterministic synthetic analogs of the paper's nine datasets
//     (Datasets) and generators for custom workloads (the internal/gen
//     package, surfaced through the datasets specs).
//
// Quick start — one assignment pass from strategy to metrics to engine:
//
//	g, _ := cutfit.Datasets()[1].BuildCached() // the "youtube" analog
//	se := cutfit.NewSession(cutfit.SessionOptions{})
//	m, _ := se.Measure(g, cutfit.EdgePartition2D(), 128)    // assigns once
//	pg, _ := se.Partition(g, cutfit.EdgePartition2D(), 128) // reuses that pass
//	ranks, stats, _ := cutfit.Run(ctx, pg, "pagerank", cutfit.ServedParams(10))
//	fmt.Println(m.CommCost, len(ranks.([]float64)), stats.TotalBroadcastMsgs())
//
// Or let the advisor choose the strategy empirically — each candidate is
// assigned exactly once, and building the winner reuses its cached
// assignment:
//
//	sel, _ := se.Select(g, cutfit.Strategies(), 128, cutfit.ProfilePageRank)
//	pg, _ := se.Partition(g, sel.Strategy, 128)
//
// # Serving
//
// The same Session serves repeated and concurrent requests: identical
// requests cost one partitioning pass total, and N goroutines running
// algorithms on one cached topology draw engine scratch from pools and
// allocate almost nothing. Session.Run does the whole pipeline in one call
// and returns the run report the CLI and the daemon encode:
//
//	rep, _ := se.Run(ctx, g, cutfit.EdgePartition2D(), 128, "pagerank", 10)
//	fmt.Println(rep.BroadcastMsgs+rep.ReduceMsgs, se.CacheStats())
//
// All Session methods are safe for concurrent use. The cmd/cutfitd command
// serves exactly this Session surface over HTTP/JSON.
//
// The library picks its own execution shape. Every parallel phase — ingest,
// hash assignment, the partition build, every engine phase of a run,
// selection, restore — fans out over the process's GOMAXPROCS, read when
// the call starts (one shared definition, internal/par), so lowering
// GOMAXPROCS bounds them all (for cutfitd, set GOMAXPROCS in its
// environment: the Go runtime reads it before main runs). Each
// partition scans densely or through its frontier index by one density
// rule; neither choice ever changes a result.
//
// # Dynamic updates
//
// A Session also serves evolving graphs. AppendEdges advances a graph to a
// new generation — the original is never mutated, so concurrent requests
// against it are unaffected — and records the delta, after which the new
// generation's artifacts are derived from the old one's instead of
// recomputed: assignments extend over just the appended suffix (streaming
// strategies resume their retained state bit-for-bit), built topologies
// are patched rather than re-sorted, and metrics are read off the patched
// topology. Streaming edge batches and re-running convergence-style
// algorithms between batches therefore costs O(batch) per update, never a
// cold rebuild:
//
//	g, _ = se.AppendEdges(g, batch)                               // next generation
//	rep, _ := se.Run(ctx, g, cutfit.EdgePartition2D(), 128, "dynamicpr", 0)
//
// A Graph is immutable; every change of edges is a generation step, and
// steps are not append-only: RemoveEdges retracts edges by tombstoning
// their dense positions (unfollows, expired interactions), and
// SlideWindow appends a batch and expires the oldest live edges in one
// generation step — the serving shape for time-windowed graphs. Retractions
// ride the same delta machinery as appends: cached assignments subtract the
// retracted edges and built topologies are patched in place, bit-identical
// to a rebuild from scratch. Once tombstones accumulate past a quarter of
// the edge list the generation compacts its dense storage; compaction
// severs the delta chain, so the next request pays one full partition pass
// (never a wrong answer, just a cold one).
//
// Edges have no weight, as in the paper's metrics and datasets: every
// loader refuses an input line with a third column, naming the line,
// rather than ignoring what it would mean.
//
// See ExampleSession_AppendEdges and ExampleSession_RemoveEdges for the
// full loops.
//
// # Observability
//
// The serving layers publish live metric series — store hit/miss/
// eviction counters and tier sizes, per-superstep engine latency and
// active-edge histograms, scratch-pool effectiveness, block-tier cache
// traffic — through a process-wide registry. WriteMetrics renders all
// of them in the Prometheus text exposition format and MetricNames
// lists the registered families:
//
//	var buf bytes.Buffer
//	_ = cutfit.WriteMetrics(&buf) // Prometheus text format 0.0.4
//
// Counters are monotone across calls and each series is rendered from a
// consistent snapshot, so the output is directly scrapeable. The
// cmd/cutfitd daemon serves it under GET /metrics, adds per-endpoint
// request/latency/error series on top, and applies admission control —
// a global and per-graph concurrency limiter with a bounded wait queue
// whose depth and wait time are themselves exported series (429 +
// Retry-After past the deadline). See ExampleMetricNames and
// docs/OPERATIONS.md for the full catalog.
//
// # Persistence
//
// A Session's amortized measurement cost survives restarts. Snapshot
// persists the whole artifact cache — graphs, assignments, metric sets and
// built engine topologies — as one versioned, CRC-checked container, and
// RestoreSession reads it back so the first requests of the new process
// are cache hits (restoring a built topology is one read + validation,
// never a re-partition):
//
//	_ = se.SnapshotNamed(w, map[string]*cutfit.Graph{"social": g})
//	se2, named, _ := cutfit.RestoreSession(r, cutfit.SessionOptions{})
//	pg, _ := se2.Partition(named["social"], cutfit.EdgePartition2D(), 128) // hit
//
// SessionOptions.DiskDir additionally gives the cache a durable disk tier:
// evicted artifacts spill to content-addressed snapshot files, misses check
// disk before recomputing, and the files outlive the process. The cmd/cutfitd
// daemon composes both via -data-dir (warm start on boot, POST /v1/snapshot,
// persist on graceful shutdown); see ExampleSession_SnapshotNamed.
//
// # Out-of-core scale
//
// For graphs whose dense edge list (16 bytes per edge, plus derived
// views) does not fit comfortably in memory, the block-compressed edge
// tier stores edges in fixed-size blocks encoded with the snapshot
// delta-varint codec and decodes them on demand: full scans stream
// through pooled scratch, random access goes through a small LRU of hot
// blocks. LoadEdgeListBlocks parses an edge list straight into block
// form (peak heap is one block of pending edges plus the compressed
// payloads), StreamEdgeList feeds batches to a callback without building
// a graph at all, and SaveBlockGraph/OpenBlockGraph persist the tier to a
// single file whose blocks are then served directly from disk. A
// block-backed Graph flows through the entire pipeline — strategies,
// metrics, the engine build, dynamic updates — bit-identically to its
// dense twin, without ever materializing the dense edge list.
//
//	g, _ := cutfit.LoadEdgeListBlocks(f, 0) // 0 = DefaultBlockEdges
//	_ = cutfit.SaveBlockGraph("social.cfb", g)
//	g2, closer, _ := cutfit.OpenBlockGraph("social.cfb") // served from the file
//	defer closer.Close()
package cutfit

import (
	"context"
	"io"

	"cutfit/internal/algorithms"
	"cutfit/internal/core"
	"cutfit/internal/datasets"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// Core graph types.
type (
	// Graph is a directed multigraph stored as an edge list with lazily
	// built adjacency views.
	Graph = graph.Graph
	// VertexID identifies a vertex (64-bit, GraphX-style).
	VertexID = graph.VertexID
	// Edge is a directed edge.
	Edge = graph.Edge
	// GraphStats is the Table 1 structural characterization.
	GraphStats = graph.Stats
)

// Partitioning types.
type (
	// Strategy assigns every edge of a graph to a partition.
	Strategy = partition.Strategy
	// PID identifies a partition.
	PID = partition.PID
	// Metrics is the §3.1 partitioning metric set.
	Metrics = metrics.Result
	// Assignment is the validated one-pass edge→partition artifact that
	// flows through the whole pipeline: a Session produces it once per
	// (graph, strategy, partition count) and derives the metrics and the
	// engine topology from it.
	Assignment = partition.Assignment
	// Selection is the outcome of empirical strategy selection: the winner
	// and every candidate's metric set.
	Selection = core.Selection
)

// Engine types.
type (
	// PartitionedGraph is the vertex-cut partitioned topology the engine
	// executes on.
	PartitionedGraph = pregel.PartitionedGraph
	// RunStats is the per-superstep work and traffic accounting.
	RunStats = pregel.RunStats
	// HopTable is what Run returns for sssp: a row-major vertices ×
	// landmarks table of hop distances, Unreached where there is no path.
	HopTable = algorithms.HopTable
)

// Shortest-paths limits and conventions.
const (
	// Unreached is the HopTable distance from a vertex with no path to the
	// landmark.
	Unreached = algorithms.Unreached
	// MaxLandmarks is the most distinct landmarks one shortest-paths run
	// accepts.
	MaxLandmarks = algorithms.MaxLandmarks
)

// Advisor types.
type (
	// Profile classifies an algorithm's communication structure.
	Profile = core.Profile
	// Recommendation is the advisor's output.
	Recommendation = core.Recommendation
	// DatasetSpec describes one of the paper's analog datasets.
	DatasetSpec = datasets.Spec
)

// FromEdges builds a graph that takes ownership of the slice.
func FromEdges(edges []Edge) *Graph { return graph.FromEdges(edges) }

// LoadEdgeList parses a SNAP-style whitespace-separated edge list of
// "src dst" lines; a line with a third field is refused.
func LoadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// DefaultBlockEdges is the block granularity LoadEdgeListBlocks uses when
// given 0: 64K edges per block.
const DefaultBlockEdges = graph.DefaultBlockEdges

// LoadEdgeListBlocks parses a SNAP-style edge list straight into the
// block-compressed edge tier: edges land in fixed-size delta-varint
// blocks (blockEdges per block, 0 selects DefaultBlockEdges) that decode
// on demand, so peak heap during the load is one block of pending edges
// plus the compressed payloads — never the dense 16-byte-per-edge list.
// The resulting graph flows through the whole pipeline bit-identically to
// its dense twin.
func LoadEdgeListBlocks(r io.Reader, blockEdges int) (*Graph, error) {
	return graph.ReadEdgeListBlocks(r, blockEdges)
}

// StreamEdgeList parses a SNAP-style edge list in batches, invoking fn
// for each. The batch slice is reused between calls — fn must copy
// anything it retains. Nothing is materialized, so arbitrarily large
// inputs stream in constant memory.
func StreamEdgeList(r io.Reader, fn func(edges []Edge) error) error {
	return graph.StreamEdgeList(r, fn)
}

// SaveBlockGraph persists a block-backed graph's compressed edge tier to
// path atomically as a single CRC-checked file, without a dense
// round-trip: for a heap-backed tier the encoded blocks are written
// as-is.
func SaveBlockGraph(path string, g *Graph) error { return snap.SaveBlockGraph(path, g) }

// OpenBlockGraph opens a file written by SaveBlockGraph and returns a
// graph that serves its blocks straight from the file — only the index
// and vertex list are heap-resident. The returned closer owns the file
// handle; close it only when the graph is no longer in use.
func OpenBlockGraph(path string) (*Graph, io.Closer, error) { return snap.OpenBlockGraph(path) }

// The six partitioning strategies evaluated in the paper.
var (
	RandomVertexCut          = partition.RandomVertexCut
	EdgePartition1D          = partition.EdgePartition1D
	EdgePartition2D          = partition.EdgePartition2D
	CanonicalRandomVertexCut = partition.CanonicalRandomVertexCut
	SourceCut                = partition.SourceCut
	DestinationCut           = partition.DestinationCut
)

// Strategies returns the paper's six strategies in table order.
func Strategies() []Strategy { return partition.All() }

// ExtendedStrategies adds the streaming Greedy and HDRF partitioners.
func ExtendedStrategies() []Strategy { return partition.Extended() }

// HybridCut returns a PowerLyra-style hybrid-cut strategy: low-in-degree
// destinations keep their edges together, high-degree hubs are spread by
// source hash. threshold is the in-degree cutoff.
func HybridCut(threshold int) Strategy { return partition.Hybrid(threshold) }

// RangeCut returns the contiguous source-ID block partitioner — the
// blocking counterpart to SC's modulo striping for ID-ordered graphs.
func RangeCut() Strategy { return partition.Range() }

// StrategyByName resolves "RVC", "1D", "2D", "CRVC", "SC", "DC", "Greedy",
// "HDRF", "Range", "Hybrid" or "Hybrid:<in-degree threshold>".
func StrategyByName(name string) (Strategy, error) { return partition.ByName(name) }

// StrategiesByNames resolves a comma-separated list of strategy names (any
// names StrategyByName accepts; empty elements are skipped).
func StrategiesByNames(csv string) ([]Strategy, error) { return partition.ByNames(csv) }

// Params are a served algorithm's run parameters; an algorithm reads the
// ones it has (Iters, Tol, ResetProb, Landmarks).
type Params = algorithms.Params

// ServedParams are the parameters Session.Run runs with: the caller's
// iteration cap, GraphX's reset probability and its runUntilConvergence
// tolerance.
func ServedParams(iters int) Params { return algorithms.ServedParams(iters) }

// Run executes the served algorithm alg — any name Session.Run accepts — on
// pg with parameters p, and returns its per-vertex values, aligned with
// pg.G.Vertices(), with the run's statistics. The values' type is the
// algorithm's: []float64 ranks (pagerank, dynamicpr), []VertexID component
// labels (cc), []int64 per-vertex triangle counts (triangles), or a HopTable
// (sssp, whose landmarks default to the graph's first vertex). An unknown
// name or a refused parameter is an error before anything runs.
func Run(ctx context.Context, pg *PartitionedGraph, alg string, p Params) (any, *RunStats, error) {
	e, err := algorithms.Lookup(alg)
	if err != nil {
		return nil, nil, err
	}
	return e.Run(ctx, pg, p)
}

// Built-in algorithm profiles for the advisor.
var (
	ProfilePageRank            = core.ProfilePageRank
	ProfileConnectedComponents = core.ProfileCC
	ProfileTriangleCount       = core.ProfileTR
	ProfileShortestPaths       = core.ProfileSSSP
)

// ProfileFor resolves a served algorithm's profile by name — any name
// Session.Run accepts.
func ProfileFor(alg string) (Profile, error) { return core.ProfileFor(alg) }

// Datasets returns the nine analog datasets of the paper's evaluation in
// Table 1 order.
func Datasets() []DatasetSpec { return datasets.Suite() }

// DatasetByName resolves an analog dataset by name (e.g. "orkut").
func DatasetByName(name string) (DatasetSpec, error) { return datasets.ByName(name) }

// The generic Pregel engine is exported so downstream users can write
// their own vertex programs against the same partitioned substrate the
// built-in algorithms use.
type (
	// Program defines a custom Pregel computation over vertex values V
	// and messages M.
	Program[V, M any] = pregel.Program[V, M]
	// Triplet presents an edge with its endpoint values to SendMsg. It
	// addresses the endpoints by dense vertex index (SrcIdx, DstIdx:
	// positions in Graph.Vertices() and Graph.OutDegrees()); SrcID() and
	// DstID() resolve the vertex IDs when a program needs them.
	Triplet[V any] = pregel.Triplet[V]
	// MessageEmitter delivers messages to a triplet's endpoints.
	MessageEmitter[M any] = pregel.Emitter[M]
	// EdgeDirection selects which triplets the compute phase scans.
	EdgeDirection = pregel.EdgeDirection
	// SuperstepStats is the per-superstep work/traffic accounting.
	SuperstepStats = pregel.SuperstepStats
)

// Triplet scan directions (GraphX activeDirection).
const (
	DirectionOut    = pregel.Out
	DirectionIn     = pregel.In
	DirectionEither = pregel.Either
	DirectionBoth   = pregel.Both
	DirectionAll    = pregel.AllEdges
)

// ErrHalt, returned from Program.OnSuperstep, stops a run gracefully.
var ErrHalt = pregel.ErrHalt

// RunProgram executes a custom Pregel program on a partitioned graph. The
// returned values are aligned with pg.G.Vertices().
func RunProgram[V, M any](ctx context.Context, pg *PartitionedGraph, prog Program[V, M]) ([]V, *RunStats, error) {
	return pregel.Run(ctx, pg, prog)
}
