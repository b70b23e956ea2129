// Package pregel implements a GraphX-style vertex-cut Bulk-Synchronous
// Parallel engine. Edges are distributed into partitions by a partitioning
// strategy; each partition reconstructs local copies (mirrors) of the
// vertices its edges touch; a master copy of every vertex lives outside the
// edge partitions (GraphX's VertexRDD). Every superstep proceeds in three
// phases, exactly mirroring GraphX's communication pattern:
//
//  1. broadcast: every mirror whose master changed receives the new value —
//     this traffic is what the CommCost metric counts. Each partition's own
//     worker pulls the values into its mirror slots at the start of its
//     compute, so the phase needs no vertex → partitions routing table, and
//     the topology keeps none;
//  2. compute: each partition scans its active triplets in parallel and
//     combines emitted messages locally per destination vertex;
//  3. reduce: one partial aggregate per (partition, vertex) is shipped back
//     to the master and merged, then the vertex program is applied.
//
// The engine executes genuinely in parallel — partitions handed out to
// Parallelism goroutines by par.ForEach, the master apply and reduce cut into
// contiguous vertex ranges by par.Ranges; the package starts no goroutine of
// its own — and simultaneously counts every message and byte crossing a
// partition boundary; the cluster package converts those counts into
// simulated wall-clock time for a configurable cluster.
//
// # Partition construction
//
// NewPartitionedGraph builds the partitioned topology with a dense
// sort/scatter algorithm rather than per-partition hash maps, because the
// advisor's empirical-selection loop rebuilds it once per candidate
// strategy and the build cost dominates that loop:
//
//  1. count: one pass over the edge assignment counts edges per partition
//     (in contiguous edge ranges, one goroutine each, by par.Ranges) and
//     validates every PID;
//  2. scatter: prefix sums over the per-(shard, partition) counts give
//     every shard a private cursor into one contiguous edge buffer, so all
//     shards scatter their edges concurrently without locks while
//     preserving global edge order within each partition (the AssignOrder
//     alignment contract);
//  3. localize: each partition — handed out by par.ForEach — marks its edge
//     endpoints in a vertex bitset taken off a free list of Parallelism
//     scratches, emits the set bits in order as the LocalVerts mirror table
//     (sorted and deduplicated by construction), and rewrites its edges to
//     local indices by O(1) rank queries.
//
// The only allocations retained per partition are the exact-size LocalVerts
// table and a subslice of the shared edge buffer; all intermediate state
// lives in those scratches, each reused across the partitions it serves.
// The reference hash-map construction lives in the tests, as the
// equivalence oracle and the benchmark baseline.
package pregel

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"cutfit/internal/graph"
	"cutfit/internal/par"
	"cutfit/internal/partition"
	"cutfit/internal/rng"
)

// localEdge is an edge expressed in partition-local vertex indices.
type localEdge struct {
	src, dst int32 // indices into Partition.LocalVerts
}

// Partition is one edge partition with its local vertex mirror table.
type Partition struct {
	// LocalVerts maps local vertex index -> global dense vertex index,
	// sorted ascending by global index.
	LocalVerts []int32
	edges      []localEdge

	// srcOff/srcPos and dstOff/dstPos are the frontier index: two CSR
	// groupings of the partition's edge positions by local source and local
	// destination vertex. Edges of local vertex l are
	// srcPos[srcOff[l]:srcOff[l+1]] (positions into edges, ascending within
	// each group because the grouping pass is a stable counting sort). The
	// engine's sparse compute path walks only the groups of frontier-active
	// vertices instead of scanning every edge. The index costs 8 bytes per
	// edge, so it is built lazily on the first sparse scan that needs it
	// (frontierOnce) — dense-only workloads such as full PageRank supersteps
	// never pay for it — and never changes afterwards: it is a pure function
	// of the edge list, which is immutable once the partition is built. The
	// one exception to lazy: ApplyDelta derives an append-only child's index
	// from its parent's when the parent has one (carryFrontierIndex), and
	// hands the child over with frontierOnce already done.
	srcOff, srcPos []int32
	dstOff, dstPos []int32
	frontierOnce   sync.Once
	frontierBuilt  atomic.Bool // set once the index is readable; lock-free footprint and carry checks
}

// ensureFrontierIndex builds the partition's frontier index on first use.
// Safe for concurrent callers; after it returns the index fields are
// readable without further synchronization.
func (p *Partition) ensureFrontierIndex() {
	p.frontierOnce.Do(func() {
		buildEdgeIndex(p)
		p.frontierBuilt.Store(true)
		mFrontierBuilt.Inc()
	})
}

// NumEdges returns the number of edges in the partition.
func (p *Partition) NumEdges() int { return len(p.edges) }

// EdgeAt returns the local vertex indices of the partition's j-th edge.
func (p *Partition) EdgeAt(j int) (src, dst int32) {
	e := p.edges[j]
	return e.src, e.dst
}

// NumLocalVertices returns the number of distinct vertices reconstructed in
// the partition.
func (p *Partition) NumLocalVertices() int { return len(p.LocalVerts) }

// BuildOptions tunes partitioned-graph construction and engine execution.
// The zero value is ready to use.
type BuildOptions struct {
	// Parallelism is the number of worker goroutines used for the build
	// and for all engine phases; values < 1 default to GOMAXPROCS.
	Parallelism int
	// ReuseBuffers lets the engine park its run-scoped scratch (mirror
	// value/activity tables, combine accumulators, per-phase counters) in
	// per-program-type pools between runs, so repeated runs over the same
	// topology — benchmark loops, advisor selection, concurrent serving —
	// and first runs over a topology ApplyDelta derived from it reallocate
	// nothing. Pools hold up to max(4, Parallelism) scratches per program
	// type, so N simultaneous Runs of one algorithm all reuse buffers; runs
	// that find their pool empty fall back to fresh allocation. Only
	// programs whose vertex value and message types hold no pointers park
	// anything: a pool must be able to say exactly what it keeps alive.
	ReuseBuffers bool
}

// PartitionedGraph is the topology shared by all jobs: the per-partition
// edge lists and local vertex tables. It keeps no per-vertex index of where
// the mirrors are: a reader that wants replica counts counts them
// (ReplicaCounts), and a partition finds its own slot of a vertex by binary
// search in its sorted LocalVerts.
type PartitionedGraph struct {
	G        *graph.Graph
	NumParts int
	Parts    []*Partition

	// assign is the original per-edge partition assignment, retained so
	// jobs can align global edge order with per-partition edge order.
	assign []partition.PID

	// Parallelism is the number of worker goroutines used for partition
	// phases; defaults to GOMAXPROCS.
	Parallelism int

	// ReuseBuffers enables engine scratch reuse across runs (see
	// BuildOptions.ReuseBuffers).
	ReuseBuffers bool

	// assignShare prices the storage behind assign (see Shares): the PID
	// slice is the Assignment's, not a copy, and along a lineage one backing
	// array serves every generation.
	assignShare graph.Share

	// scratch is where runs park their engine scratch between runs. One
	// pool serves a whole lineage: a topology derived by ApplyDelta holds
	// its parent's pool, so the first run on a streamed generation revives
	// the buffers its predecessor parked.
	scratch *scratchPool

	// triPlan is the lazily built triangle plan (see TrianglePlan), with the
	// same life-cycle as the partitions' frontier index: built at most once,
	// immutable afterwards, counted by MemoryFootprint once triBuilt is set.
	triOnce  sync.Once
	triPlan  []TriangleRuns
	triBuilt atomic.Bool

	// topoSum is the lazily computed content hash of the partition tables
	// (see TopologySum).
	topoOnce sync.Once
	topoSum  uint64
}

// maxScratchTypes bounds how many distinct program types park scratches in
// one pool; beyond it, additional types simply run with fresh
// buffers. Above the built-in algorithm mix (PageRank, dynamic PageRank, CC,
// k-core and the seven shortest-paths widths), it exists so a server
// executing arbitrary custom programs cannot grow the pool map without
// bound.
const maxScratchTypes = 16

// minScratchDepth is the per-type pool depth floor. The effective depth is
// max(minScratchDepth, Parallelism): concurrency beyond the worker pool
// gains nothing from extra parked buffers, but a small floor keeps
// low-parallelism builds useful under bursty concurrent load.
const minScratchDepth = 4

// scratchDepth returns the per-program-type pool bound.
func (pg *PartitionedGraph) scratchDepth() int {
	if pg.Parallelism > minScratchDepth {
		return pg.Parallelism
	}
	return minScratchDepth
}

// NewPartitionedGraph builds the partitioned representation from an edge
// assignment (one PID per edge, aligned with g.Edges()) with default
// options.
func NewPartitionedGraph(g *graph.Graph, assign []partition.PID, numParts int) (*PartitionedGraph, error) {
	return NewPartitionedGraphOpts(g, assign, numParts, BuildOptions{})
}

// NewPartitionedGraphOpts builds the partitioned representation with the
// sort/scatter algorithm described in the package comment, fanning
// per-partition work over opts.Parallelism workers.
func NewPartitionedGraphOpts(g *graph.Graph, assign []partition.PID, numParts int, opts BuildOptions) (*PartitionedGraph, error) {
	if numParts <= 0 {
		return nil, fmt.Errorf("pregel: numParts must be positive, got %d", numParts)
	}
	ne := g.NumEdges()
	if len(assign) != ne {
		return nil, fmt.Errorf("pregel: assignment has %d entries for %d edges", len(assign), ne)
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = par.DefaultParallelism()
	}

	pg := &PartitionedGraph{
		G:            g,
		NumParts:     numParts,
		assign:       assign,
		Parallelism:  workers,
		ReuseBuffers: opts.ReuseBuffers,
		scratch:      &scratchPool{},
	}
	pg.assignShare, _ = graph.SliceShare(assign, nil)
	if err := pg.buildSortScatter(); err != nil {
		return nil, err
	}
	// The frontier index is not built here but on first use
	// (ensureFrontierIndex), so a run that needs none never pays for it.
	return pg, nil
}

// buildSortScatter populates Parts from the edge assignment: parallel
// counting sort of edges into one contiguous buffer, then per-partition
// local vertex tables by sort + dedup. Tombstoned edges are validated (the
// assignment stays dense-aligned) but never scattered: partitions hold live
// edges only, exactly as a rebuild over the compacted list would produce.
//
// Both passes shard the edge list into the same contiguous ranges — whole
// blocks on a block-backed graph — and the scatter reads endpoint indices
// through Graph.ForEachEndpointBlock: the cached O(E) slices of a dense
// graph, per-worker block-sized scratch on the block tier, which never
// materializes them (most of its peak-heap win at scale).
func (pg *PartitionedGraph) buildSortScatter() error {
	g, assign, numParts := pg.G, pg.assign, pg.NumParts
	ne := len(assign)
	numDead := g.NumDeadEdges()

	unit, units := 1, ne
	if bs := g.Blocks(); bs != nil {
		unit, units = bs.BlockEdges(), bs.NumBlocks()
	}
	// Ranges cuts the units into at most shards ranges, possibly fewer: the
	// per-shard slots below are sized and initialised for all of them.
	shards := max(min(pg.Parallelism, units), 1)
	edgeRange := func(lo, hi int) (int, int) { return min(lo*unit, ne), min(hi*unit, ne) }

	// Pass 1: per-(shard, partition) live edge counts. Each shard validates
	// its own PIDs; it needs only the assignment and tombstones, never the
	// edges themselves, and notes the first bad one it meets.
	shardCounts := make([]int64, shards*numParts)
	badAt := slices.Repeat([]int{-1}, shards)
	if err := par.Ranges(shards, units, func(s, lo, hi int) {
		lo, hi = edgeRange(lo, hi)
		counts := shardCounts[s*numParts : (s+1)*numParts]
		for i := lo; i < hi; i++ {
			p := assign[i]
			if p < 0 || int(p) >= numParts {
				badAt[s] = i
				return
			}
			if numDead != 0 && !g.EdgeAlive(i) {
				continue
			}
			counts[p]++
		}
	}); err != nil {
		return fmt.Errorf("pregel: %w", err)
	}
	// Shards are ascending, so the first one that met a bad PID met the
	// lowest.
	for _, i := range badAt {
		if i >= 0 {
			return fmt.Errorf("pregel: edge %d assigned to out-of-range partition %d", i, assign[i])
		}
	}

	// Prefix sums: partStart[p] is the partition's region in the shared
	// edge buffer; cursors[s*numParts+p] is shard s's write position inside
	// it. Shards are contiguous ascending edge ranges, so this preserves
	// global edge order within every partition.
	partStart := make([]int64, numParts+1)
	for p := 0; p < numParts; p++ {
		var total int64
		for s := 0; s < shards; s++ {
			total += shardCounts[s*numParts+p]
		}
		partStart[p+1] = partStart[p] + total
	}
	cursors := shardCounts // reuse: overwrite counts with absolute cursors
	for p := 0; p < numParts; p++ {
		pos := partStart[p]
		for s := 0; s < shards; s++ {
			c := shardCounts[s*numParts+p]
			cursors[s*numParts+p] = pos
			pos += c
		}
	}

	// Pass 2: scatter. Edges are staged with their *global* dense endpoint
	// indices; the localize pass rewrites them in place to local indices.
	// The buffer holds live edges only — the count pass skipped tombstones
	// with the same predicate, so the cursors line up exactly.
	edgeBuf := make([]localEdge, partStart[numParts])
	errs := make([]error, shards)
	if err := par.Ranges(shards, units, func(s, lo, hi int) {
		lo, hi = edgeRange(lo, hi)
		cur := cursors[s*numParts : (s+1)*numParts]
		errs[s] = g.ForEachEndpointBlock(lo, hi, false, func(start int, srcIdx, dstIdx []int32, _ []float64) error {
			for j := range srcIdx {
				i := start + j
				if numDead != 0 && !g.EdgeAlive(i) {
					continue
				}
				p := assign[i]
				edgeBuf[cur[p]] = localEdge{src: srcIdx[j], dst: dstIdx[j]}
				cur[p]++
			}
			return nil
		})
	}); err != nil {
		return fmt.Errorf("pregel: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("pregel: %w", err)
		}
	}
	return pg.scatterFinish(edgeBuf, partStart)
}

// scatterFinish slices the shared edge buffer into Parts and runs the
// localize pass (pass 3) over the partitions: per-partition local vertex
// tables, then in-place rewrite of the staged global endpoint indices to
// local ones. A partition takes one growable endpoint scratch off a free
// list of Parallelism slots — one per goroutine that can be localizing at
// once — and puts it back when done.
func (pg *PartitionedGraph) scatterFinish(edgeBuf []localEdge, partStart []int64) error {
	parts := make([]*Partition, pg.NumParts)
	for p := range parts {
		parts[p] = &Partition{edges: edgeBuf[partStart[p]:partStart[p+1]:partStart[p+1]]}
	}
	pg.Parts = parts
	workers := max(pg.Parallelism, 1)
	free := make(chan *localizeScratch, workers)
	for range workers {
		free <- new(localizeScratch)
	}
	nv := pg.G.NumVertices()
	return par.ForEach(context.Background(), workers, len(parts), func(p int) {
		s := <-free
		s.localize(parts[p], nv)
		free <- s
	})
}

// buildEdgeIndex builds the partition's frontier index: stable counting
// sorts of the edge positions grouped by local source and by local
// destination. O(|edges| + |LocalVerts|), no comparison sort. The offset
// tables double as scatter cursors (shifted one slot during the fill,
// restored by a final copy-down).
func buildEdgeIndex(part *Partition) {
	n := len(part.LocalVerts)
	m := len(part.edges)
	srcOff := make([]int32, n+1)
	dstOff := make([]int32, n+1)
	for _, e := range part.edges {
		srcOff[e.src+1]++
		dstOff[e.dst+1]++
	}
	for i := 0; i < n; i++ {
		srcOff[i+1] += srcOff[i]
		dstOff[i+1] += dstOff[i]
	}
	srcPos := make([]int32, m)
	dstPos := make([]int32, m)
	for j, e := range part.edges {
		srcPos[srcOff[e.src]] = int32(j)
		srcOff[e.src]++
		dstPos[dstOff[e.dst]] = int32(j)
		dstOff[e.dst]++
	}
	copy(srcOff[1:], srcOff[:n])
	srcOff[0] = 0
	copy(dstOff[1:], dstOff[:n])
	dstOff[0] = 0
	part.srcOff, part.srcPos = srcOff, srcPos
	part.dstOff, part.dstPos = dstOff, dstPos
}

// localizeScratch is one scatter worker's reusable vertex-presence state:
// a bitset over global dense vertex indices plus a per-word rank prefix.
// Both are O(numVertices/64) — replacing the old sort-based localization
// whose scratch was O(2·partitionEdges) per concurrent worker, which at
// out-of-core scale stacked up to an extra 8 bytes per edge of transient
// peak heap during every build.
type localizeScratch struct {
	words []uint64 // presence bitset, indexed by global vertex index
	rank  []int32  // rank[w] = set bits in words[:w]
}

// localize builds part.LocalVerts and rewrites the staged global endpoint
// indices to local ones. Marking endpoints in a bitset and emitting set
// bits in word order yields exactly the sorted deduplicated table the old
// sort+dedup produced, and each rewrite is an O(1) rank query (prefix
// table + popcount within the word) instead of a binary search.
func (s *localizeScratch) localize(part *Partition, nv int) {
	edges := part.edges
	if len(edges) == 0 {
		return
	}
	nw := (nv + 63) / 64
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
		s.rank = make([]int32, nw+1)
	}
	words, rank := s.words[:nw], s.rank[:nw+1]
	for _, e := range edges {
		words[e.src>>6] |= 1 << (uint32(e.src) & 63)
		words[e.dst>>6] |= 1 << (uint32(e.dst) & 63)
	}
	n := int32(0)
	for w, word := range words {
		rank[w] = n
		n += int32(bits.OnesCount64(word))
	}
	rank[nw] = n
	lv := make([]int32, n)
	for w, word := range words {
		base := int32(w << 6)
		at := rank[w]
		for word != 0 {
			lv[at] = base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			at++
		}
	}
	part.LocalVerts = lv
	local := func(g int32) int32 {
		return rank[g>>6] + int32(bits.OnesCount64(words[g>>6]&(1<<(uint32(g)&63)-1)))
	}
	for j, e := range edges {
		edges[j] = localEdge{src: local(e.src), dst: local(e.dst)}
	}
	// Clear only the words this partition touched, via the vertex table
	// itself — partitions far smaller than the graph don't pay O(nv).
	for _, g := range lv {
		words[g>>6] = 0
	}
}

// FrontierIndexes reports how many partitions hold a frontier index, built
// by a sparse scan or a seeded start's trim, or carried over by ApplyDelta.
func (pg *PartitionedGraph) FrontierIndexes() int {
	n := 0
	for _, part := range pg.Parts {
		if part.frontierBuilt.Load() {
			n++
		}
	}
	return n
}

// ReplicaCounts returns, per global dense vertex, how many partitions mirror
// it: the replica count the §3.1 metrics sum. Nothing is kept; every call
// counts afresh, sharded by global vertex range over Parallelism workers the
// way the reduce phase splits its merge: a shard finds its range in each
// partition by binary search (LocalVerts is sorted) and owns its counts.
func (pg *PartitionedGraph) ReplicaCounts() []int32 {
	counts := make([]int32, pg.G.NumVertices())
	if err := par.Ranges(pg.Parallelism, len(counts), func(_, gLo, gHi int) {
		for _, part := range pg.Parts {
			lo, _ := slices.BinarySearch(part.LocalVerts, int32(gLo))
			hi, _ := slices.BinarySearch(part.LocalVerts, int32(gHi))
			for _, g := range part.LocalVerts[lo:hi] {
				counts[g]++
			}
		}
	}); err != nil {
		panic(err)
	}
	return counts
}

// AssignOrder returns the original per-edge partition assignment, aligned
// with G.Edges(). Edges were appended to each partition in this order, so
// a second pass over it reproduces local edge indices. Callers must not
// modify the returned slice.
func (pg *PartitionedGraph) AssignOrder() []partition.PID { return pg.assign }

// TopologySum content-addresses the partitioned topology: a fold over every
// partition's local vertex table and edge list, one 64-bit word at a time
// (the chaining Graph.Fingerprint uses).
// Combined with the graph fingerprint it names a shard generation in
// internal/dist, so a worker holding a stale shard can never silently serve
// the wrong topology. A built topology is immutable — ApplyDelta returns a
// new PartitionedGraph — so the sum is computed on first use and never
// invalidated.
func (pg *PartitionedGraph) TopologySum() uint64 {
	pg.topoOnce.Do(func() {
		h := rng.Combine2(0, uint64(pg.NumParts))
		for _, part := range pg.Parts {
			h = rng.Combine2(h, uint64(len(part.LocalVerts)))
			for _, g := range part.LocalVerts {
				h = rng.Combine2(h, uint64(uint32(g)))
			}
			h = rng.Combine2(h, uint64(len(part.edges)))
			for _, e := range part.edges {
				h = rng.Combine2(h, uint64(uint32(e.src))<<32|uint64(uint32(e.dst)))
			}
		}
		pg.topoSum = h
	})
	return pg.topoSum
}

// TotalMirrors returns the total number of mirror slots across all
// partitions (= Σ ReplicaCounts = metrics CommCost + NonCut).
func (pg *PartitionedGraph) TotalMirrors() int64 {
	var n int64
	for _, part := range pg.Parts {
		n += int64(len(part.LocalVerts))
	}
	return n
}

// MemoryFootprint approximates the bytes the topology alone retains — the
// shared edge buffer, per-partition mirror tables, and the lazily built
// frontier index and triangle plan once they exist — and so grows when a
// first reader builds one of them; cache layers re-price after a run. What
// the topology holds together with others is priced by Shares instead: the
// Graph, the assignment's PID slice, the lineage's parked engine scratch.
// Mirror tables an ApplyDelta child inherited unchanged are counted by both
// topologies.
func (pg *PartitionedGraph) MemoryFootprint() int64 {
	var b int64
	for _, part := range pg.Parts {
		b += int64(len(part.edges))*8 + int64(len(part.LocalVerts))*4
		// Frontier index: two position arrays and two offset tables. Built
		// lazily, so a topology that has only run dense scans costs nothing
		// here. The size is computed from the flag rather than the slices —
		// accounting may run concurrently with a sparse scan's lazy build,
		// and the atomic flag is ordered after the fields are published.
		if part.frontierBuilt.Load() {
			m, n := int64(len(part.edges)), int64(len(part.LocalVerts))
			b += 2*m*4 + 2*(n+1)*4
		}
	}
	// Triangle plan: one leaf per canonical edge and one offset per local
	// vertex, lazily built like the frontier index and read behind its flag
	// for the same reason.
	if pg.triBuilt.Load() {
		for _, runs := range pg.triPlan {
			b += int64(len(runs.Off)+len(runs.Leaf)) * 4
		}
	}
	return b
}

// Shares lists the storage the topology keeps alive together with other
// artifacts: everything its Graph reports (graph.Graph.Shares), the PID
// slice it holds jointly with the Assignment it was built from, and the
// scratch pool it holds jointly with every topology of its ApplyDelta
// lineage, priced at what is parked in it right now. A cache charges each
// key once, to whichever of its entries hold it, and frees the charge with
// the last of them.
func (pg *PartitionedGraph) Shares() []graph.Share {
	out := pg.G.Shares()
	if pg.assignShare.Key != nil {
		out = append(out, pg.assignShare)
	}
	return append(out, graph.Share{Key: pg.scratch, Bytes: pg.scratch.parkedBytes()})
}

// scratchPool parks engine scratches between runs: one stack per program
// type, keyed by the scratch's concrete type, so N simultaneous Runs of one
// algorithm each check out their own buffer set and park it back on
// completion, and different [V, M]-typed programs (PageRank's float64s, CC's
// vertex IDs) never evict each other. The topologies of one ApplyDelta
// lineage share a pool; a taker refits the buffers to its own topology.
type scratchPool struct {
	mu     sync.Mutex
	byType map[string][]parkedScratch
	bytes  int64 // Σ footprint of everything parked
}

// parkedScratch is what the pool needs of an engineScratch[V, M].
type parkedScratch interface{ footprint() int64 }

// take checks out one parked scratch of the given program type, or nil when
// that type's stack is empty. Other types' stacks are untouched.
func (sp *scratchPool) take(typeKey string) parkedScratch {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	stack := sp.byType[typeKey]
	n := len(stack)
	if n == 0 {
		return nil
	}
	s := stack[n-1]
	stack[n-1] = nil
	sp.byType[typeKey] = stack[:n-1]
	sp.bytes -= s.footprint()
	return s
}

// put parks a scratch on its program type's stack; a stack already depth
// deep (or a full type map) drops it for the garbage collector.
func (sp *scratchPool) put(typeKey string, s parkedScratch, depth int) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	stack, ok := sp.byType[typeKey]
	if !ok && len(sp.byType) >= maxScratchTypes {
		return
	}
	if len(stack) >= depth {
		return
	}
	if sp.byType == nil {
		sp.byType = make(map[string][]parkedScratch)
	}
	sp.byType[typeKey] = append(stack, s)
	sp.bytes += s.footprint()
}

// parked reports how many scratches of the given type are parked (test
// hook).
func (sp *scratchPool) parked(typeKey string) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.byType[typeKey])
}

// parkedBytes is the summed buffer capacity of everything parked.
func (sp *scratchPool) parkedBytes() int64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.bytes
}
