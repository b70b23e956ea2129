// Package store is the keyed artifact cache of the serving layer: one
// Store memoizes every stage of the Assignment pipeline —
//
//	graph ──Assignment(strategy, numParts)──► built PartitionedGraph
//	   └────────────────────────────────────► metrics.Result
//
// — so repeated and concurrent requests for the same (graph, strategy,
// numParts) tuple each pay for at most one partitioning pass, one topology
// build and one metrics derivation, ever, until eviction.
//
// Three properties make it a serving core rather than a memo map:
//
//   - Single-flight builds. Concurrent identical requests are deduplicated:
//     the first caller computes, the rest block on the in-flight result.
//     K simultaneous Metrics calls for one tuple run the strategy exactly
//     once (proven by the counting-strategy tests).
//   - Chained artifacts. Metrics and Built both obtain the Assignment
//     through the store, so a Measure followed by a Partition — or either
//     racing the other — shares one assignment pass.
//   - Size-bounded LRU eviction. Every artifact carries a byte cost: its
//     own MemoryFootprint plus the storage it keeps alive together with
//     other artifacts (the graph generation, the lineage's edge arrays, the
//     assignment's PID array, parked engine scratch), each such allocation
//     charged once however many entries hold it. Inserts evict
//     least-recently-used entries until the cache fits MaxBytes. Evicted
//     artifacts remain valid for holders — eviction only means the next
//     request recomputes.
//
// Keys hold the graph by pointer. Graphs are immutable, so an entry can
// never go stale, and the key itself keeps its graph reachable: a freed
// graph's address cannot be reused while any entry is keyed by it.
//
// # Delta chains
//
// A fourth property serves evolving graphs: when a new graph generation is
// registered as an append delta over an old one (RecordDelta, fed by
// Session.AppendEdges / graph.Grow), a miss for the new generation does
// not recompute from scratch. The store walks the recorded chain to the
// nearest ancestor whose artifact is still cached and derives the new
// artifact from it:
//
//	assignment: ancestor Assignment ──Extend──► suffix-only pass
//	topology:   ancestor topology ──ApplyDelta──► patched, no re-sort
//	metrics:    derived topology ──Metrics()──► O(|V| + mirrors)
//
// Derivations are still single-flight and cached under the new
// generation's key; a chain with no cached ancestor (or a strategy whose
// prefix is not stable under growth) falls back to the full computation.
// Stats.DeltaDerived counts artifacts produced this way.
//
// The chain also carries answers. A converged run's result
// (pregel.StoredAnswer) is a fourth kind of entry, put by the caller
// (PutAnswer) rather than computed on a miss, keyed by generation and
// algorithm; AnswerBase walks to the nearest ancestor's so that the run on a
// new generation can start from it. Answers are priced and evicted like the
// rest but never leave memory.
package store

import (
	"container/list"
	"fmt"
	"slices"
	"sync"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// kind tags the artifact stage a cache entry holds.
type kind uint8

const (
	kindAssignment kind = iota
	kindMetrics
	kindBuilt
	// kindAnswer is a converged run's answer (pregel.StoredAnswer), kept for
	// the generations that descend from its graph: it belongs to the
	// generation, not to a partitioning, so its key carries the algorithm's
	// name in the strategy slot and no partition count. Memory only: Persist,
	// FlushDisk and eviction spill skip it.
	kindAnswer
)

// key identifies one artifact: the graph (by pointer identity), the
// strategy's cache identity (partition.KeyOf, so parameterized variants
// never alias), the partition count and the pipeline stage.
type key struct {
	g        *graph.Graph
	strategy string
	numParts int
	kind     kind
}

// DefaultMaxBytes is the cache budget when Config.MaxBytes is zero:
// comfortably holds the full strategy sweep of the analog datasets while
// bounding a long-running server.
const DefaultMaxBytes int64 = 512 << 20

// Config tunes a Store.
type Config struct {
	// MaxBytes bounds the summed MemoryFootprint of cached artifacts;
	// 0 means DefaultMaxBytes, negative means unbounded.
	MaxBytes int64
	// Build is how the store constructs partitioned topologies. Serving
	// wants ReuseBuffers on — cached graphs are run repeatedly and
	// concurrently, which is exactly what the engine scratch pools serve.
	Build pregel.BuildOptions
	// DiskDir, when non-empty, enables the durable disk tier under the
	// in-memory cache: entries evicted by the LRU spill to
	// <DiskDir>/<fingerprint>-<tuplehash>.snap, misses check disk before
	// recomputing, and entries survive process restarts (the file name is
	// keyed by graph content, not pointers). The directory is created if
	// missing; if it cannot be, the store silently runs memory-only —
	// servers that must fail loudly should create the directory themselves.
	// The tier holds at most DefaultDiskMaxBytes; oldest entries are dropped
	// beyond it.
	DiskDir string
}

// Stats is a point-in-time snapshot of cache behavior. The JSON tags are
// the encoding cutfitd serves at /v1/stats.
type Stats struct {
	// Hits counts requests answered from the cache; Misses counts requests
	// that computed; Waits counts requests that blocked on another
	// caller's identical in-flight computation (the single-flight dedup).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Waits  int64 `json:"waits"`
	// DeltaDerived counts artifacts derived from a cached ancestor
	// generation through the delta chain instead of computed from scratch.
	DeltaDerived int64 `json:"deltaDerived"`
	// Seeded counts runs that started from a cached ancestor answer instead
	// of superstep 0 (see AnswerBase).
	Seeded int64 `json:"seeded"`
	// DiskHits counts misses satisfied by decoding a disk-tier entry
	// instead of recomputing (each also counts as a Miss at the memory
	// tier).
	DiskHits int64 `json:"diskHits"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Entries and Bytes describe the current cache contents.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MaxBytes echoes the configured bound (< 0: unbounded).
	MaxBytes int64 `json:"maxBytes"`
	// DiskEntries and DiskBytes describe the disk tier's current contents
	// (zero when no disk tier is configured).
	DiskEntries int   `json:"diskEntries"`
	DiskBytes   int64 `json:"diskBytes"`
}

// entry is one cached artifact with its LRU bookkeeping: cost is what the
// artifact alone retains, shares the keys of what it holds with others.
type entry struct {
	key    key
	val    any
	cost   int64
	shares []graph.Share
	elem   *list.Element
}

// price is what caching an artifact costs: own bytes, charged to its entry,
// and the storage it keeps alive together with other artifacts, charged
// once per allocation across all entries (see graph.Share).
type price struct {
	own    int64
	shares []graph.Share
}

// priceOf prices an artifact as it is now: a topology's frontier index and
// triangle plan count once built, a lineage's scratch pool at what is parked
// in it, a graph's lazily built views once they exist.
func priceOf(v any) price {
	switch a := v.(type) {
	case *partition.Assignment:
		shares := a.G.Shares()
		if s, ok := a.PIDShare(); ok {
			shares = append(shares, s)
		}
		return price{a.MemoryFootprint(), shares}
	case *pregel.PartitionedGraph:
		return price{a.MemoryFootprint(), a.Shares()}
	case *metrics.Result:
		return price{own: metricsFootprint(a)}
	case pregel.StoredAnswer:
		return price{a.MemoryFootprint(), a.Shares()}
	}
	return price{}
}

// sharedStorage is one allocation held by at least one cached artifact,
// counted in Store.bytes at its latest reported size while refs > 0.
type sharedStorage struct {
	refs  int
	bytes int64
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Store is the concurrent artifact cache. All methods are safe for
// concurrent use; the mutex is never held while computing an artifact.
type Store struct {
	build    pregel.BuildOptions
	maxBytes int64
	disk     *diskTier // nil when no disk tier is configured

	mu       sync.Mutex
	entries  map[key]*entry
	lru      *list.List // front = most recently used; values are *entry
	inflight map[key]*flight
	shared   map[any]*sharedStorage // by graph.Share key
	bytes    int64                  // Σ entry costs + Σ shared storage
	hits     int64
	misses   int64
	waits    int64
	evicted  int64
	derived  int64
	seeded   int64
	diskHits int64

	// repEntries and repBytes are the last values this store published
	// to the process-wide obsv gauges; syncGauges reconciles against
	// them (see obsv.go).
	repEntries int64
	repBytes   int64

	// deltas records the generation steps registered by RecordDelta, keyed
	// by the new generation; deltaFIFO orders them for eviction. A record
	// keeps its two generations reachable, so their storage counts toward
	// bytes while it lives (see deltaRecord), and retention is bounded both by
	// count and by what the records pin on their own account (deltaBytes vs
	// deltaBudget) — a chain of steps that share nothing (first Grows,
	// block-tier appends) must not crowd every artifact out of the cache.
	deltas      map[*graph.Graph]deltaRecord
	deltaFIFO   []*graph.Graph
	deltaBytes  int64
	deltaBudget int64
}

// maxDeltaRecords bounds retained generation records: enough for a long
// streaming session to keep deriving, small enough that abandoned parent
// generations become collectable.
const maxDeltaRecords = 64

// deltaRecord is one recorded generation step. A record keeps both
// generations reachable whether or not any artifact of theirs is cached, so
// it pins their storage in the cache's byte count like an entry does
// (shares); pinned is what it adds on its own account — the parent's
// storage that the child does not share — and is what the chain's separate
// budget bounds. Along a Grow lineage the edge arrays are shared (and after
// a pure shrink the vertex list and endpoint views too), so a record pins
// only the parent's own tables and, across a shrink, its tombstone bitset; a
// first Grow or a block-tier append pins the parent's whole edge storage.
type deltaRecord struct {
	graph.Delta
	shares []graph.Share
	pinned int64
}

func newDeltaRecord(d graph.Delta) deltaRecord {
	rec := deltaRecord{Delta: d, shares: d.New.Shares()}
	for _, s := range d.Old.Shares() {
		if !slices.ContainsFunc(rec.shares, func(held graph.Share) bool { return held.Key == s.Key }) {
			rec.pinned += s.Bytes
			rec.shares = append(rec.shares, s)
		}
	}
	return rec
}

// maxDeltaDepth bounds how many generations a derive-on-miss walk crosses
// looking for a cached ancestor artifact.
const maxDeltaDepth = 16

// New returns an empty store with the given configuration.
func New(cfg Config) *Store {
	max := cfg.MaxBytes
	if max == 0 {
		max = DefaultMaxBytes
	}
	budget := max / 4
	if max < 0 {
		budget = DefaultMaxBytes / 4 // unbounded cache still bounds pinned generations
	}
	st := &Store{
		build:       cfg.Build,
		maxBytes:    max,
		entries:     make(map[key]*entry),
		lru:         list.New(),
		inflight:    make(map[key]*flight),
		shared:      make(map[any]*sharedStorage),
		deltas:      make(map[*graph.Graph]deltaRecord),
		deltaBudget: budget,
	}
	if cfg.DiskDir != "" {
		// A failed open (unwritable path) leaves the store memory-only;
		// see Config.DiskDir.
		st.disk, _ = newDiskTier(cfg.DiskDir, DefaultDiskMaxBytes)
	}
	return st
}

// RecordDelta registers that d.New is d.Old plus an appended edge suffix,
// enabling delta derivation for artifacts of d.New (and of generations
// grown from it in turn). Records are dropped oldest-first beyond a fixed
// count, and beyond a byte budget (a quarter of the cache bound) on the
// generations they pin — dropping a record only severs the derivation
// chain there; later requests fall back to full computation.
func (st *Store) RecordDelta(d graph.Delta) {
	// A no-op step (Old == New) records nothing; neither does a compacted
	// step — compaction rewrites dense edge positions, so the prefix
	// alignment every delta derivation relies on is gone and descendants
	// must recompute from scratch.
	if d.Old == nil || d.New == nil || d.Old == d.New || d.Compacted {
		return
	}
	rec := newDeltaRecord(d)
	st.mu.Lock()
	st.pin(rec.shares)
	if old, ok := st.deltas[d.New]; ok {
		st.dropDelta(old)
	} else {
		st.deltaFIFO = append(st.deltaFIFO, d.New)
	}
	st.deltas[d.New] = rec
	st.deltaBytes += rec.pinned
	for len(st.deltaFIFO) > 1 &&
		(len(st.deltaFIFO) > maxDeltaRecords || st.deltaBytes > st.deltaBudget) {
		st.dropDelta(st.deltas[st.deltaFIFO[0]])
		st.deltaFIFO[0] = nil // the array outlives the reslice: do not pin the generation from it
		st.deltaFIFO = st.deltaFIFO[1:]
	}
	var evicted []*entry
	if st.maxBytes >= 0 {
		evicted = st.evictOverBudget()
	}
	st.syncGauges()
	st.mu.Unlock()
	st.spill(evicted)
}

// dropDelta forgets one recorded step and releases what it pinned. Callers
// must hold st.mu and fix up deltaFIFO themselves.
func (st *Store) dropDelta(rec deltaRecord) {
	st.deltaBytes -= rec.pinned
	st.unpin(rec.shares)
	delete(st.deltas, rec.New)
}

// Assignment returns the cached edge assignment of (g, s, numParts),
// running the strategy at most once per cache generation regardless of how
// many callers race.
func (st *Store) Assignment(g *graph.Graph, s partition.Strategy, numParts int) (*partition.Assignment, error) {
	k := st.keyFor(g, s, numParts, kindAssignment)
	v, err := st.do(k, func() (any, error) {
		if v, ok := st.fromDisk(g, k.strategy, numParts, kindAssignment); ok {
			return v, nil
		}
		if a, ok := st.assignmentViaDelta(g, s, numParts); ok {
			return a, nil
		}
		return partition.Assign(g, s, numParts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*partition.Assignment), nil
}

// Metrics returns the cached §3.1 metric set of (g, s, numParts), deriving
// it from the store's cached Assignment on miss. Callers must treat the
// result as immutable — it is shared with every other caller of this key.
func (st *Store) Metrics(g *graph.Graph, s partition.Strategy, numParts int) (*metrics.Result, error) {
	k := st.keyFor(g, s, numParts, kindMetrics)
	v, err := st.do(k, func() (any, error) {
		if v, ok := st.fromDisk(g, k.strategy, numParts, kindMetrics); ok {
			return v, nil
		}
		if m, ok := st.metricsViaDelta(g, s, numParts); ok {
			return m, nil
		}
		a, err := st.Assignment(g, s, numParts)
		if err != nil {
			return nil, err
		}
		return metrics.FromAssignment(a)
	})
	if err != nil {
		return nil, err
	}
	return v.(*metrics.Result), nil
}

// Built returns the cached engine-ready topology of (g, s, numParts),
// building it from the store's cached Assignment on miss. The returned
// PartitionedGraph is shared: it is safe for concurrent runs (engine state
// lives in per-run pooled scratch) and must not be mutated.
func (st *Store) Built(g *graph.Graph, s partition.Strategy, numParts int) (*pregel.PartitionedGraph, error) {
	k := st.keyFor(g, s, numParts, kindBuilt)
	v, err := st.do(k, func() (any, error) {
		if v, ok := st.fromDisk(g, k.strategy, numParts, kindBuilt); ok {
			return v, nil
		}
		if pg, ok := st.builtViaDelta(g, s, numParts); ok {
			return pg, nil
		}
		a, err := st.Assignment(g, s, numParts)
		if err != nil {
			return nil, err
		}
		return pregel.NewPartitionedGraphFromAssignment(a, st.build)
	})
	if err != nil {
		return nil, err
	}
	return v.(*pregel.PartitionedGraph), nil
}

// peek returns the cached artifact of k without computing on miss,
// refreshing its LRU position on hit.
func (st *Store) peek(k key) (any, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[k]
	if !ok {
		return nil, false
	}
	st.lru.MoveToFront(e.elem)
	return e.val, true
}

// findBase walks the recorded delta chain from g toward older generations
// and returns the first cached artifact of the wanted stage, together with
// the delta hop it was found behind (whose OldVerts remap that ancestor's
// dense vertex indices onto any descendant). ok is false when no ancestor
// within maxDeltaDepth has the artifact cached — deriving would then first
// have to compute on a superseded generation, which is never cheaper than
// computing on g directly.
func (st *Store) findBase(g *graph.Graph, strategyKey string, numParts int, kd kind) (any, graph.Delta, bool) {
	cur := g
	for depth := 0; depth < maxDeltaDepth; depth++ {
		st.mu.Lock()
		rec, ok := st.deltas[cur]
		st.mu.Unlock()
		if !ok {
			break
		}
		d := rec.Delta
		k := key{g: d.Old, strategy: strategyKey, numParts: numParts, kind: kd}
		if v, ok := st.peek(k); ok {
			return v, d, true
		}
		cur = d.Old
	}
	return nil, graph.Delta{}, false
}

func (st *Store) countDerived() {
	st.mu.Lock()
	st.derived++
	st.mu.Unlock()
	mDerived.Inc()
}

// extendable reports whether s can assign an edge suffix without
// recomputing the prefix (stateless hash or resumable streaming). For any
// other strategy the delta paths are pure overhead — Extend would fall
// back to a full pass and ApplyDelta would reject the moved prefix — so
// the store skips the detour entirely.
func extendable(s partition.Strategy) bool {
	if _, ok := s.(partition.SuffixAssigner); ok {
		return true
	}
	_, ok := s.(partition.Resumable)
	return ok
}

// assignmentViaDelta derives g's assignment by extending the nearest
// cached ancestor assignment over the accumulated edge suffix.
func (st *Store) assignmentViaDelta(g *graph.Graph, s partition.Strategy, numParts int) (*partition.Assignment, bool) {
	if !extendable(s) {
		return nil, false
	}
	base, d, ok := st.findBase(g, partition.KeyOf(s), numParts, kindAssignment)
	if !ok {
		return nil, false
	}
	ba := base.(*partition.Assignment)
	na, err := ba.Extend(g, s)
	if err != nil {
		return nil, false // fall back to the full pass
	}
	// Extend moves the ancestor's retained streaming state into the
	// derived assignment; re-price the cached ancestor so the LRU
	// accounting keeps matching actually-retained memory.
	st.reprice(key{g: d.Old, strategy: partition.KeyOf(s), numParts: numParts, kind: kindAssignment})
	st.countDerived()
	return na, true
}

// reprice prices an existing cache entry afresh (no-op if the key is
// absent): what an artifact retains changes after it was inserted — Extend
// takes an assignment's streaming state, the first sparse superstep builds
// a topology's frontier index, a run parks its scratch, a graph's views are
// built on first use. A growth re-price can push the cache past its byte
// bound with no insert coming to run the eviction pass — a graph served
// only through delta derivations may never insert again — so the pass runs
// here too, spilling any evictions to the disk tier outside the lock.
func (st *Store) reprice(k key) {
	st.mu.Lock()
	e, ok := st.entries[k]
	var v any
	if ok {
		v = e.val
	}
	st.mu.Unlock()
	if !ok {
		return
	}
	p := priceOf(v)
	st.mu.Lock()
	var evicted []*entry
	if st.entries[k] == e && e.val == v {
		st.bytes += p.own - e.cost
		e.cost = p.own
		// Pin the new set before unpinning the old one, so storage held by
		// both never drops to zero references in between.
		old := e.shares
		e.shares = p.shares
		st.pin(e.shares)
		st.unpin(old)
		if st.maxBytes >= 0 && st.bytes > st.maxBytes {
			evicted = st.evictOverBudget()
		}
	}
	st.syncGauges()
	st.mu.Unlock()
	st.spill(evicted)
}

// RepriceBuilt re-prices the cached topology of (g, s, numParts), if any.
// Callers that ran an algorithm on it call this when the run returns: the
// run may have built the frontier index or the triangle plan, and has
// parked its scratch.
func (st *Store) RepriceBuilt(g *graph.Graph, s partition.Strategy, numParts int) {
	st.reprice(st.keyFor(g, s, numParts, kindBuilt))
}

// pin adds one reference to each share and brings its charge up to date
// with the size just reported. Callers must hold st.mu.
func (st *Store) pin(shares []graph.Share) {
	for _, s := range shares {
		sh := st.shared[s.Key]
		if sh == nil {
			sh = &sharedStorage{}
			st.shared[s.Key] = sh
		}
		sh.refs++
		st.bytes += s.Bytes - sh.bytes
		sh.bytes = s.Bytes
	}
}

// unpin drops one reference from each share, releasing the charge of
// storage no cached artifact holds any more. Callers must hold st.mu.
func (st *Store) unpin(shares []graph.Share) {
	for _, s := range shares {
		sh := st.shared[s.Key]
		if sh.refs--; sh.refs == 0 {
			st.bytes -= sh.bytes
			delete(st.shared, s.Key)
		}
	}
}

// builtViaDelta derives g's topology by patching the nearest cached
// ancestor topology with the accumulated suffix. The assignment it patches
// with comes from the store too, so it is itself delta-derived when
// possible.
func (st *Store) builtViaDelta(g *graph.Graph, s partition.Strategy, numParts int) (*pregel.PartitionedGraph, bool) {
	if !extendable(s) {
		return nil, false
	}
	base, d, ok := st.findBase(g, partition.KeyOf(s), numParts, kindBuilt)
	if !ok {
		return nil, false
	}
	a, err := st.Assignment(g, s, numParts)
	if err != nil {
		return nil, false
	}
	remap, err := graph.RemapVertices(d.OldVerts, g)
	if err != nil {
		return nil, false
	}
	npg, err := base.(*pregel.PartitionedGraph).ApplyDelta(a, remap)
	if err != nil {
		return nil, false // e.g. prefix not suffix-stable: full rebuild
	}
	st.countDerived()
	return npg, true
}

// metricsViaDelta derives g's metric set from its built topology — exact
// (O(|V| + mirrors)) and far cheaper than the replica-bitset scan — when the
// topology is already cached for g or derivable from a cached ancestor. The
// replica counts the metrics read are kept nowhere; the topology's entry is
// re-priced afterwards all the same, so it is charged for whatever graph
// views it shares that were built since it was priced.
func (st *Store) metricsViaDelta(g *graph.Graph, s partition.Strategy, numParts int) (*metrics.Result, bool) {
	// A topology already cached for g answers exactly, delta or not — not
	// counted as DeltaDerived, since no chain was crossed.
	k := st.keyFor(g, s, numParts, kindBuilt)
	if v, ok := st.peek(k); ok {
		m := v.(*pregel.PartitionedGraph).Metrics()
		st.reprice(k)
		return m, true
	}
	if !extendable(s) {
		return nil, false
	}
	if _, _, ok := st.findBase(g, partition.KeyOf(s), numParts, kindBuilt); !ok {
		return nil, false
	}
	pg, err := st.Built(g, s, numParts)
	if err != nil {
		return nil, false
	}
	// Not counted as DeltaDerived here: Built's own derivation already
	// counted if (and only if) the topology really came through the chain
	// rather than a full-rebuild fallback.
	m := pg.Metrics()
	st.reprice(k)
	return m, true
}

// AnswerBase finds the nearest ancestor of g, along the recorded delta chain
// (the walk topologies and assignments are derived by), that holds a cached
// answer of alg, and places it under g: the ancestor's dense edge count and
// the vertex remap onto g. When there is none it says why, in the words of the
// cutfit_run_starts_total reason label: "no_parent" — g has no recorded
// parent (a first generation, one past a compaction, a chain dropped by
// RecordDelta's bounds or by InvalidateGraph); "no_answer" — no generation
// within maxDeltaDepth holds one (never run to convergence, or evicted);
// "remap" — the ancestor's vertices do not map onto g's.
func (st *Store) AnswerBase(g *graph.Graph, alg string) (*pregel.Parent, string) {
	st.mu.Lock()
	_, chained := st.deltas[g]
	st.mu.Unlock()
	if !chained {
		return nil, "no_parent"
	}
	v, d, ok := st.findBase(g, alg, 0, kindAnswer)
	if !ok {
		return nil, "no_answer"
	}
	remap, err := graph.RemapVertices(d.OldVerts, g)
	if err != nil {
		return nil, "remap"
	}
	return &pregel.Parent{Answer: v.(pregel.StoredAnswer), OldLen: d.OldLen, Remap: remap}, ""
}

// PutAnswer caches a converged run's answer of alg on g for g's descendants
// to start from, priced and evicted like any entry; seeded says the run that
// produced it started from an ancestor's (counted in Stats.Seeded).
func (st *Store) PutAnswer(g *graph.Graph, alg string, a pregel.StoredAnswer, seeded bool) {
	k := key{g: g, strategy: alg, kind: kindAnswer}
	p := priceOf(a)
	st.mu.Lock()
	if seeded {
		st.seeded++
	}
	evicted := st.insert(k, a, p)
	st.syncGauges()
	st.mu.Unlock()
	st.spill(evicted)
}

// Answers lists the cached answers, in no particular order: a hook for tests
// that check what the cache holds.
func (st *Store) Answers() []pregel.StoredAnswer {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []pregel.StoredAnswer
	for k, e := range st.entries {
		if k.kind == kindAnswer {
			out = append(out, e.val.(pregel.StoredAnswer))
		}
	}
	return out
}

// InvalidateGraph drops every cached artifact of g (all strategies, all
// stages), every delta record touching g — severing any
// derivation chain that runs through it — and every disk-tier entry spilled
// under g's content fingerprint, including files left by previous
// processes. Used when a server re-registers a graph name with new data.
func (st *Store) InvalidateGraph(g *graph.Graph) {
	if st.disk != nil {
		st.disk.removeGraph(g.Fingerprint())
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.syncGauges()
	for k, e := range st.entries {
		if k.g == g {
			st.remove(e)
		}
	}
	kept := st.deltaFIFO[:0]
	for _, ng := range st.deltaFIFO {
		if d := st.deltas[ng]; d.Old == g || d.New == g {
			st.dropDelta(d)
			continue
		}
		kept = append(kept, ng)
	}
	st.deltaFIFO = kept
}

// Stats returns a snapshot of cache counters and contents.
func (st *Store) Stats() Stats {
	var diskEntries int
	var diskBytes int64
	if st.disk != nil {
		diskEntries, diskBytes = st.disk.stat()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stats{
		Hits:         st.hits,
		Misses:       st.misses,
		Waits:        st.waits,
		DeltaDerived: st.derived,
		Seeded:       st.seeded,
		DiskHits:     st.diskHits,
		Evictions:    st.evicted,
		Entries:      len(st.entries),
		Bytes:        st.bytes,
		MaxBytes:     st.maxBytes,
		DiskEntries:  diskEntries,
		DiskBytes:    diskBytes,
	}
}

func (st *Store) keyFor(g *graph.Graph, s partition.Strategy, numParts int, kd kind) key {
	return key{g: g, strategy: partition.KeyOf(s), numParts: numParts, kind: kd}
}

// do implements cache lookup with single-flight computation: a hit returns
// immediately; a miss with an identical request already in flight blocks on
// it; otherwise the caller computes (without holding the lock), publishes,
// and wakes all waiters. Errors are returned to every waiter of the flight
// but never cached — a transient failure does not poison the key.
func (st *Store) do(k key, build func() (val any, err error)) (any, error) {
	st.mu.Lock()
	if e, ok := st.entries[k]; ok {
		st.lru.MoveToFront(e.elem)
		st.hits++
		v := e.val
		st.mu.Unlock()
		mHits.Inc()
		return v, nil
	}
	if f, ok := st.inflight[k]; ok {
		st.waits++
		st.mu.Unlock()
		mWaits.Inc()
		<-f.done
		return f.val, f.err
	}
	f := &flight{done: make(chan struct{})}
	st.inflight[k] = f
	st.misses++
	st.mu.Unlock()
	mMisses.Inc()

	v, err := st.runFlight(k, f, build)
	f.val, f.err = v, err
	var p price
	if err == nil {
		p = priceOf(v)
	}

	st.mu.Lock()
	delete(st.inflight, k)
	var evicted []*entry
	if err == nil {
		evicted = st.insert(k, v, p)
		st.syncGauges()
	}
	st.mu.Unlock()
	close(f.done)
	// Budget-evicted entries spill to the disk tier — outside the lock, so
	// file I/O never stalls concurrent cache traffic.
	st.spill(evicted)
	return v, err
}

// runFlight runs the build of flight f on key k. A build that panics must
// not strand the key: the flight's waiters get the panic as an error, the
// next caller rebuilds, and the panic goes on up to the builder's caller.
func (st *Store) runFlight(k key, f *flight, build func() (any, error)) (any, error) {
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("store: build panicked: %v", r)
			st.mu.Lock()
			delete(st.inflight, k)
			st.mu.Unlock()
			close(f.done)
			panic(r)
		}
	}()
	return build()
}

// insert adds an artifact and evicts from the LRU tail until the cache
// fits the byte bound, returning the evicted entries so the caller can
// spill them to the disk tier after releasing the lock. The just-inserted
// entry is never evicted, so an artifact larger than the whole budget is
// still served (and becomes the eviction victim of the next insert).
// Callers must hold st.mu.
func (st *Store) insert(k key, v any, p price) []*entry {
	e, ok := st.entries[k]
	if ok {
		// A racing flight of the same key can slip in between generations;
		// refresh in place.
		st.bytes -= e.cost
		st.lru.MoveToFront(e.elem)
	} else {
		e = &entry{key: k}
		e.elem = st.lru.PushFront(e)
		st.entries[k] = e
	}
	old := e.shares
	e.val, e.cost, e.shares = v, p.own, p.shares
	st.bytes += e.cost
	st.pin(e.shares)
	st.unpin(old)
	if st.maxBytes < 0 {
		return nil
	}
	return st.evictOverBudget()
}

// evictOverBudget drops LRU-tail entries until the cache fits the byte
// bound (always keeping at least one entry) and returns them for the
// caller to spill after releasing the lock. Callers must hold st.mu.
func (st *Store) evictOverBudget() []*entry {
	var evicted []*entry
	for st.bytes > st.maxBytes && st.lru.Len() > 1 {
		e := st.lru.Back().Value.(*entry)
		st.remove(e)
		evicted = append(evicted, e)
	}
	return evicted
}

// remove drops an entry from the cache and releases what it was charged
// for, counting an eviction. Callers must hold st.mu.
func (st *Store) remove(e *entry) {
	st.lru.Remove(e.elem)
	delete(st.entries, e.key)
	st.bytes -= e.cost
	st.unpin(e.shares)
	st.evicted++
	mEvicted.Inc()
}

// metricsFootprint approximates the retained bytes of a metric set: the
// two per-partition slices plus the fixed fields.
func metricsFootprint(m *metrics.Result) int64 {
	return int64(len(m.EdgesPerPart))*8 + int64(len(m.VerticesPerPart))*8 + 128
}
