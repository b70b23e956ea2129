package cutfit

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"

	"cutfit/internal/algorithms"
	"cutfit/internal/core"
	"cutfit/internal/dist"
	"cutfit/internal/graph"
	"cutfit/internal/obsv"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/store"
)

// SessionOptions tunes a Session.
type SessionOptions struct {
	// MaxCacheBytes bounds the artifact cache (assignments, built
	// topologies, metric sets) by their approximate retained bytes;
	// 0 means the default (512 MiB), negative means unbounded.
	MaxCacheBytes int64
	// DiskDir, when non-empty, enables the durable disk tier under the
	// artifact cache: artifacts evicted from memory spill to versioned
	// snapshot files in this directory, cache misses check disk before
	// recomputing, and spilled entries survive process restarts (files are
	// keyed by graph content, so a re-registered identical graph warms
	// straight from disk). The directory is created if needed; if it cannot
	// be, the session runs memory-only. The tier holds at most 4× the
	// default memory budget, dropping its oldest files beyond that.
	DiskDir string
}

// SnapshotSummary reports what one Snapshot call wrote.
type SnapshotSummary = store.PersistSummary

// CacheStats is a snapshot of a Session's artifact cache counters.
type CacheStats = store.Stats

// Session is the concurrent serving core of the library: a keyed artifact
// cache over the Assignment pipeline plus the engine's scratch pools. Any
// number of goroutines may call a Session's methods simultaneously —
// identical requests are deduplicated to one computation (single-flight),
// repeated requests hit the cache, and concurrent Runs on one cached
// topology check buffer sets out of per-program-type pools.
//
// Make one with NewSession or RestoreSession. A batch caller uses one too:
// a request made once costs its computation plus one cache insert.
//
// Graphs are immutable, so any number of requests may share one.
// AppendEdges, RemoveEdges and SlideWindow derive a new generation and
// leave the graph they start from serving as it was.
type Session struct {
	st   *store.Store
	pool *dist.Pool
}

// WorkerPool is a fixed set of distributed worker processes a Session can
// dispatch runs to; see internal/dist and docs/DISTRIBUTED.md.
type WorkerPool = dist.Pool

// NewWorkerPool builds a worker pool over the given base URLs (e.g.
// "http://127.0.0.1:9090").
func NewWorkerPool(urls []string) *WorkerPool { return dist.NewPool(urls) }

// WorkerStatus is one worker's health snapshot (see WorkerPool.Status).
type WorkerStatus = dist.WorkerStatus

// AttachWorkers attaches a distributed worker pool: subsequent Run calls
// for the algorithms the served-algorithm table marks as cluster-run
// dispatch supersteps across the pool's workers, falling back to an
// in-process run (with identical results) if any worker fails mid-run.
// Attach before serving; a nil pool detaches.
func (se *Session) AttachWorkers(p *WorkerPool) { se.pool = p }

// Workers returns the attached worker pool, or nil when runs are local.
func (se *Session) Workers() *WorkerPool { return se.pool }

// NewSession returns a Session with a caching artifact store. Topologies
// it builds run with buffer reuse on, so repeated and concurrent runs over
// cached graphs draw engine scratch from pools instead of allocating.
func NewSession(opts SessionOptions) *Session {
	return &Session{
		st: store.New(store.Config{
			MaxBytes: opts.MaxCacheBytes,
			Build:    pregel.BuildOptions{ReuseBuffers: true},
			DiskDir:  opts.DiskDir,
		}),
	}
}

// Assignment returns the (cached) validated edge assignment of
// (g, s, numParts) — at most one strategy pass per session, no matter how
// many callers race.
func (se *Session) Assignment(g *Graph, s Strategy, numParts int) (*Assignment, error) {
	return se.st.Assignment(g, s, numParts)
}

// Measure returns the (cached) §3.1 metric set of (g, s, numParts),
// derived from the session's cached assignment. The result is shared;
// treat it as immutable.
func (se *Session) Measure(g *Graph, s Strategy, numParts int) (*Metrics, error) {
	return se.st.Metrics(g, s, numParts)
}

// Partition returns the (cached) engine-ready topology of
// (g, s, numParts), built from the session's cached assignment. The
// returned PartitionedGraph is shared and safe for concurrent runs; do not
// mutate it.
func (se *Session) Partition(g *Graph, s Strategy, numParts int) (*PartitionedGraph, error) {
	return se.st.Built(g, s, numParts)
}

// Select measures every candidate strategy on g through the session's
// cache — repeated selection over one graph re-assigns nothing — and
// returns the Selection minimizing the profile's predictive metric.
func (se *Session) Select(g *Graph, candidates []Strategy, numParts int, p Profile) (*Selection, error) {
	return core.SelectEmpirically(se.st, g, candidates, numParts, p)
}

// Advise recommends a strategy for the algorithm profile on g, deriving
// the dataset facts (including ID-locality detection, which scans the
// edges once per graph) from the graph.
func (se *Session) Advise(g *Graph, p Profile, numParts int) Recommendation {
	facts := core.Facts(g)
	facts.IDLocality = core.DetectIDLocality(g, graph.LocalityWindow, 0.5)
	return core.Advise(p, facts, numParts, core.DefaultAdvisorConfig())
}

// CacheStats returns the session's artifact-cache counters.
func (se *Session) CacheStats() CacheStats { return se.st.Stats() }

// Forget drops every cached artifact of g — used when replacing a served
// graph's data under the same handle.
func (se *Session) Forget(g *Graph) {
	se.st.InvalidateGraph(g)
}

// checkAppended rejects a batch holding a negative vertex ID: the engine
// reserves them.
func checkAppended(edges []Edge) error {
	for i, e := range edges {
		if e.Src < 0 || e.Dst < 0 {
			return fmt.Errorf("cutfit: appended edge %d (%d -> %d) has negative vertex ID", i, e.Src, e.Dst)
		}
	}
	return nil
}

// AppendEdges returns the next generation of g: a new Graph holding g's
// edges followed by edges, derived incrementally (graph.Grow) without
// mutating g — in-flight requests against g keep running untouched, which
// is what makes streaming updates race-free in a serving session.
//
// The session records the generation delta, so artifacts of the new graph
// are derived from g's cached ones instead of recomputed: assignments
// extend over just the suffix, built topologies are patched in place of a
// full sort/scatter rebuild, and metrics fall out of the patched topology.
// A client can therefore stream edge batches and re-run algorithms (e.g.
// dynamic PageRank) between batches without ever paying a cold rebuild:
//
//	g, _ = se.AppendEdges(g, batch)
//	rep, _ = se.Run(ctx, g, strat, parts, "dynamicpr", 0)
//
// Edges with negative vertex IDs are rejected (the engine reserves them).
// An empty batch returns g unchanged.
func (se *Session) AppendEdges(g *Graph, edges []Edge) (*Graph, error) {
	if err := checkAppended(edges); err != nil {
		return nil, err
	}
	if len(edges) == 0 {
		return g, nil
	}
	ng, d := g.Grow(edges)
	se.st.RecordDelta(d)
	return ng, nil
}

// RemoveEdges returns the next generation of g with the given edges
// retracted (graph.Shrink): each element removes the oldest live occurrence
// of that edge value, positions are tombstoned rather than spliced, and g
// itself is never mutated — in-flight requests against g keep running, the
// same race-free contract AppendEdges has. Retracting a value not in the
// graph is an error; surplus retractions of an already-removed value are
// skipped, so replayed batches are idempotent. A batch netting zero
// retractions returns g unchanged, minting no generation.
//
// The session records the generation delta, so artifacts of the shrunk
// graph are patched from g's cached ones (assignments subtract the
// retracted edges, topologies drop them in place) instead of recomputed.
// Once tombstones pass the compaction threshold the generation rewrites its
// dense list; that severs the delta chain, so the next request pays one
// full partition pass — never a wrong answer, just a cold one.
func (se *Session) RemoveEdges(g *Graph, edges []Edge) (*Graph, error) {
	if len(edges) == 0 {
		return g, nil
	}
	ng, d, err := g.Shrink(edges)
	if err != nil {
		return nil, err
	}
	if ng != g {
		se.st.RecordDelta(d)
	}
	return ng, nil
}

// SlideWindow advances g one sliding-window step (graph.SlideWindow):
// append edges and expire every live edge older than the expireBefore-th
// append, in ONE generation (one recorded delta) — the serving shape for
// time-windowed graphs, where each batch both adds fresh interactions and
// retires the oldest ones. With expireBefore 0 it is an append; a step
// netting zero change returns g unchanged.
func (se *Session) SlideWindow(g *Graph, edges []Edge, expireBefore int) (*Graph, error) {
	if err := checkAppended(edges); err != nil {
		return nil, err
	}
	ng, d := g.SlideWindow(edges, expireBefore)
	if ng != g {
		se.st.RecordDelta(d)
	}
	return ng, nil
}

// SnapshotNamed writes the session's whole artifact cache to w as one
// versioned, CRC-checked snapshot: every cached graph and every cached
// assignment, metric set and built topology. cutfit.RestoreSession reads
// it back into a fresh session whose first requests are cache hits — a
// restart costs one read instead of re-partitioning everything.
//
// names labels graphs for a name registry: it maps registry names to the
// graphs they serve (several names may share a graph; nil labels none), and
// RestoreSession returns the same mapping over the restored graph objects
// so a server can rebuild its registry on warm start. Graphs referenced
// only by names (no cached artifacts yet) are snapshotted too. A graph with
// a negative vertex ID cannot be restored, so SnapshotNamed refuses it,
// naming it, before writing anything.
func (se *Session) SnapshotNamed(w io.Writer, names map[string]*Graph) (SnapshotSummary, error) {
	return se.st.Persist(w, names)
}

// Flush writes every cached artifact through to the session's disk tier,
// returning how many entries were written — a no-op (0, nil) without
// SessionOptions.DiskDir. Use it before shutdown when the disk tier alone
// (rather than a snapshot file) should carry the cache across restarts.
func (se *Session) Flush() (int, error) {
	return se.st.FlushDisk()
}

// RestoreSession reads a Session.SnapshotNamed stream into a new
// Session configured by opts, and returns the label → graph mapping
// recorded at snapshot time (over the freshly restored graph objects).
// Every artifact is re-validated by the snapshot codec before it enters
// the cache — a corrupt or tampered snapshot fails loudly rather than
// serving a wrong-but-plausible artifact. Requests against the returned
// graphs hit the restored cache immediately: restoring a partitioned
// topology is one read + validation, never a re-partition.
func RestoreSession(r io.Reader, opts SessionOptions) (*Session, map[string]*Graph, error) {
	se := NewSession(opts)
	named, err := se.st.Restore(r)
	if err != nil {
		return nil, nil, err
	}
	return se, named, nil
}

// Run executes the named algorithm — an entry of the served-algorithm table
// in internal/algorithms — on the session's cached topology of (g, s,
// numParts) and returns the shared run encoding: superstep/traffic counts and
// the algorithm's headline result. iters is the table's Params.Iters. An
// unknown name or a refused parameter is an error before anything is
// partitioned. Safe for any number of concurrent callers.
//
// The session keeps the converged answer of an algorithm that can
// resume from one (cc) with its generation, and a run to convergence on a
// generation whose recorded delta chain reaches such an answer starts from it
// instead of from superstep 0: same values, bit for bit, at the cost of the
// delta; the report says Seeded and its superstep counts describe the run
// that happened. See docs/ARCHITECTURE.md, "Seeded starts", for when a run
// starts cold instead.
func (se *Session) Run(ctx context.Context, g *Graph, s Strategy, numParts int, alg string, iters int) (*RunReport, error) {
	e, err := algorithms.Lookup(alg)
	if err != nil {
		return nil, err
	}
	p := algorithms.ServedParams(iters)
	if err := e.Check(p); err != nil {
		return nil, err
	}
	pg, err := se.Partition(g, s, numParts)
	if err != nil {
		return nil, err
	}
	values, stats, seeded, err := se.execute(ctx, pg, e, p)
	if err != nil {
		return nil, err
	}
	// The run may have built the topology's frontier index or triangle plan,
	// and has parked its scratch: bring the cache's price for the entry up to
	// date (and let it evict if that no longer fits).
	se.st.RepriceBuilt(g, s, numParts)
	return &RunReport{
		Algorithm:     alg,
		Strategy:      s.Name(),
		Parts:         numParts,
		Supersteps:    stats.NumSupersteps(),
		Converged:     stats.Converged,
		Halted:        stats.Halted,
		BroadcastMsgs: stats.TotalBroadcastMsgs(),
		ReduceMsgs:    stats.TotalReduceMsgs(),
		ActiveEdges:   stats.TotalActiveEdges(),
		Frontier:      frontierTrace(stats),
		Seeded:        seeded,
		Summary:       e.Summarize(g, values, stats),
	}, nil
}

// mRunStarts counts Session.Run executions by how they started: seeded from a
// cached ancestor answer (reason "parent") or cold, and then why.
var mRunStarts = obsv.Default.CounterVec("cutfit_run_starts_total",
	"Session runs by how they started: seeded from a cached ancestor generation's answer, or cold (from superstep 0) and why.",
	"algorithm", "start", "reason")

// neverSeeds says why a run of e with p cannot start from an ancestor's
// answer whatever the cache holds, or "" when it can.
func (se *Session) neverSeeds(e *algorithms.Entry, p algorithms.Params) string {
	switch {
	case e.Resume == nil:
		return "unseedable"
	case p.Iters != 0:
		// A capped run's values are not the fixpoint, and a seeded run cannot
		// reproduce where a cold one would have stopped.
		return "capped"
	case se.pool != nil:
		return "workers"
	}
	return ""
}

// execute runs e on pg and reports whether the run was seeded. An algorithm
// that resumes, run to convergence on a session with no workers attached, starts from the nearest cached ancestor answer when the store
// finds one (store.AnswerBase) and from superstep 0 otherwise, and leaves its
// own converged answer with the generation either way. Everything else runs
// cold: across the attached pool when the cluster runs e, else in process. A
// failed distributed run falls back to a local one unless the caller's
// context is why it failed — safe, the local engine produces bit-identical
// results on the same topology — and is counted and logged.
func (se *Session) execute(ctx context.Context, pg *PartitionedGraph, e *algorithms.Entry, p algorithms.Params) (any, *RunStats, bool, error) {
	if why := se.neverSeeds(e, p); why != "" {
		mRunStarts.With(e.Name, "cold", why).Inc()
		values, stats, err := se.runCold(ctx, pg, e, p)
		return values, stats, false, err
	}
	from, why := se.st.AnswerBase(pg.G, e.Name)
	var (
		values any
		ans    pregel.StoredAnswer
		stats  *RunStats
		err    error
	)
	if from != nil {
		values, ans, stats, err = e.Resume(ctx, pg, p, from)
		if errors.Is(err, pregel.ErrStampClock) {
			from, why = nil, "clock"
		}
	}
	if from == nil {
		values, ans, stats, err = e.Resume(ctx, pg, p, nil)
	}
	if err != nil {
		return nil, nil, false, err
	}
	start := "cold"
	if from != nil {
		start, why = "seeded", "parent"
	}
	mRunStarts.With(e.Name, start, why).Inc()
	if stats.Converged {
		se.st.PutAnswer(pg.G, e.Name, ans, from != nil)
	}
	return values, stats, from != nil, nil
}

// runCold runs e from superstep 0 without keeping an answer.
func (se *Session) runCold(ctx context.Context, pg *PartitionedGraph, e *algorithms.Entry, p algorithms.Params) (any, *RunStats, error) {
	if se.pool != nil && e.Vertex != nil {
		values, stats, err := dist.Run(ctx, se.pool, pg, e, p)
		if err == nil {
			return values, stats, nil
		}
		if ctx.Err() != nil {
			return nil, nil, err
		}
		dist.NoteFallback()
		slog.Error("cutfit: distributed "+e.Name+" failed; falling back to local run", "err", err)
	}
	return e.Run(ctx, pg, p)
}

// The report types below are the one JSON encoding shared by the cutfit
// CLI (-json) and the cutfitd HTTP server: one struct per response shape,
// so clients never see two spellings of the same result.

// MetricsReport is the JSON encoding of a §3.1 metric set for one
// (graph, strategy, numParts) request.
type MetricsReport struct {
	Graph             string  `json:"graph,omitempty"`
	Strategy          string  `json:"strategy"`
	Parts             int     `json:"parts"`
	Balance           float64 `json:"balance"`
	NonCut            int64   `json:"nonCut"`
	Cut               int64   `json:"cut"`
	CommCost          int64   `json:"commCost"`
	PartStDev         float64 `json:"partStDev"`
	ReplicationFactor float64 `json:"replicationFactor"`
}

// NewMetricsReport builds the shared metrics encoding.
func NewMetricsReport(strategy string, parts int, m *Metrics) MetricsReport {
	return MetricsReport{
		Strategy:          strategy,
		Parts:             parts,
		Balance:           m.Balance,
		NonCut:            m.NonCut,
		Cut:               m.Cut,
		CommCost:          m.CommCost,
		PartStDev:         m.PartStDev,
		ReplicationFactor: m.ReplicationFactor,
	}
}

// StrategyRank is one row of an empirical ranking: a strategy's value of
// the profile's predictive metric, with the winner flagged.
type StrategyRank struct {
	Strategy string  `json:"strategy"`
	Value    float64 `json:"value"`
	Selected bool    `json:"selected,omitempty"`
}

// AdviseReport is the JSON encoding of a strategy recommendation,
// optionally with the measured ranking of every candidate.
type AdviseReport struct {
	Graph     string         `json:"graph,omitempty"`
	Algorithm string         `json:"algorithm"`
	Parts     int            `json:"parts"`
	Strategy  string         `json:"strategy"`
	Metric    string         `json:"metric"`
	Reason    string         `json:"reason"`
	Ranking   []StrategyRank `json:"ranking,omitempty"`
}

// NewAdviseReport builds the shared advise encoding from a recommendation.
func NewAdviseReport(alg string, parts int, rec Recommendation) AdviseReport {
	return AdviseReport{
		Algorithm: alg,
		Parts:     parts,
		Strategy:  rec.Strategy.Name(),
		Metric:    rec.Metric,
		Reason:    rec.Reason,
	}
}

// RankFromSelection converts an empirical Selection into the shared
// ranking rows, sorted ascending by metric value (best first). Rows carry
// the strategy's cache key (name, or Hybrid:<t> for parameterized
// variants), matching the Results map.
func RankFromSelection(sel *Selection, metricName string) ([]StrategyRank, error) {
	winner := partition.KeyOf(sel.Strategy)
	rows := make([]StrategyRank, 0, len(sel.Results))
	for name, m := range sel.Results {
		v, err := m.MetricByName(metricName)
		if err != nil {
			return nil, err
		}
		rows = append(rows, StrategyRank{Strategy: name, Value: v, Selected: name == winner})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Value != rows[j].Value {
			return rows[i].Value < rows[j].Value
		}
		return rows[i].Strategy < rows[j].Strategy
	})
	return rows, nil
}

// VertexRank pairs a vertex with its PageRank score.
type VertexRank = algorithms.VertexRank

// FrontierStep is one superstep's frontier accounting in a RunReport: how
// many vertices were active, how many edges the compute phase actually
// examined (all partition edges on a dense scan, only frontier-incident
// candidates on a sparse scan), and how many messages the scan emitted.
// The activeEdges column shrinking while the graph stays fixed is the
// sparse path's win made observable per superstep.
type FrontierStep struct {
	Superstep      int   `json:"superstep"`
	ActiveVertices int64 `json:"activeVertices"`
	ActiveEdges    int64 `json:"activeEdges"`
	MsgsEmitted    int64 `json:"msgsEmitted"`
}

// frontierTrace flattens per-superstep frontier stats for the run report.
func frontierTrace(stats *RunStats) []FrontierStep {
	if len(stats.Supersteps) == 0 {
		return nil
	}
	trace := make([]FrontierStep, len(stats.Supersteps))
	for i := range stats.Supersteps {
		ss := &stats.Supersteps[i]
		trace[i] = FrontierStep{
			Superstep:      ss.Superstep,
			ActiveVertices: ss.ActiveVertices,
			ActiveEdges:    ss.ActiveEdges,
			MsgsEmitted:    ss.MsgsEmitted,
		}
	}
	return trace
}

// RunReport is the JSON encoding of one algorithm execution: engine
// accounting and the algorithm's headline result — the embedded Summary's TopRanks, Components, Triangles, Landmark
// and Reached, of which only the matching ones are populated.
type RunReport struct {
	Graph         string `json:"graph,omitempty"`
	Algorithm     string `json:"algorithm"`
	Strategy      string `json:"strategy"`
	Parts         int    `json:"parts"`
	Supersteps    int    `json:"supersteps"`
	Converged     bool   `json:"converged"`
	Halted        bool   `json:"halted,omitempty"`
	BroadcastMsgs int64  `json:"broadcastMsgs"`
	ReduceMsgs    int64  `json:"reduceMsgs"`
	// ActiveEdges totals the edges the compute phase examined over the run;
	// Frontier breaks it down per superstep.
	ActiveEdges int64          `json:"activeEdges"`
	Frontier    []FrontierStep `json:"frontier,omitempty"`
	// Seeded marks a run that started from a cached ancestor generation's
	// answer rather than from superstep 0: Supersteps, the message counts and
	// Frontier then describe that shorter run (whose first superstep ships
	// every master to its mirrors, as a cold one's does). The result is the
	// cold run's, bit for bit.
	Seeded bool `json:"seeded,omitempty"`

	algorithms.Summary
}
