// Package graph provides the in-memory graph representation used by the
// whole repository: a directed multigraph stored as an edge list, with
// lazily-built compressed sparse row (CSR) adjacency views and exact
// structural statistics (symmetry, triangles, components, diameter).
//
// The representation mirrors GraphX's: the graph is fundamentally a list of
// directed edges over 64-bit vertex identifiers; vertex sets, degrees and
// adjacency are derived views. Vertex identifiers do not need to be dense,
// but all generators in this module produce dense IDs in [0, NumVertices).
//
// Edges live in one of two tiers. The dense tier is a plain []Edge slice —
// cheap to build and mutate, O(E) resident. The block tier (BlockStore)
// keeps edges delta-varint-encoded in fixed-size blocks that decode on
// demand, optionally served straight from an on-disk file, so a graph's
// resident cost is the compressed bytes (or nothing at all). Both tiers
// answer the same streaming iteration API (ForEachEdgeBlock / EdgeSeq) and
// produce bit-identical derived views, fingerprints and generation chains;
// only Edges()/Weights(), which promise a dense slice, force a block graph
// to materialize.
package graph

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cutfit/internal/rng"
)

// VertexID identifies a vertex. Like GraphX's VertexId it is a 64-bit
// integer; it carries no other meaning, although the SC/DC partitioning
// strategies deliberately exploit any locality encoded in consecutive IDs.
type VertexID int64

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src VertexID
	Dst VertexID
}

// Graph is a directed multigraph stored as an edge list. It is cheap to
// construct and append to; adjacency views are built lazily and cached.
//
// Retraction is represented by tombstones: Shrink marks dense edge
// positions dead in a bitset instead of splicing the edge list, so every
// per-edge artifact computed against the dense list (partition
// assignments, scattered topologies) stays index-aligned across a
// retraction. Edges() and NumEdges() keep dense semantics — they include
// tombstoned slots — while NumLiveEdges/EdgeAlive expose liveness and all
// derived views (degrees, CSRs, stats) skip dead edges. Once tombstones
// pass a density threshold a new generation is compacted to a fresh dense
// list (see Shrink).
//
// Edges optionally carry float64 weights in a parallel slice (nil when
// the graph is unweighted, so the common case pays nothing). Weights flow
// through the partitioning metrics and the streaming strategies' degree
// tables; an all-ones weighting is bit-identical to the unweighted path.
//
// Concurrency: a Graph is safe for any number of concurrent readers,
// including concurrent *first* accesses — every lazy view build is guarded
// by its own viewOnce, so N goroutines racing on an unbuilt view elect one
// builder and the rest observe the finished result. This is what lets one
// graph back many simultaneous engine runs and cache lookups in the serving
// layer. Mutation (AddEdge/AddEdges) is NOT safe concurrently with reads;
// mutate before sharing.
type Graph struct {
	edges []Edge

	// weights holds the per-edge weight aligned with edges, or nil for an
	// unweighted graph (every edge then weighs 1).
	weights []float64

	// edgesTail, weightsTail, srcTail and dstTail are the shared backing
	// arrays behind edges, weights, srcIdx and dstIdx on a generation
	// produced by Grow (see Tail): the slices above are clamped to this
	// generation's length, the arrays may hold spare capacity that the next
	// Grow claims instead of copying. Nil on a graph that owns its slices
	// outright; mutation drops them (a mutated graph's slices live elsewhere,
	// so it could not extend the arrays anyway and should not pin them).
	edgesTail        *Tail[Edge]
	weightsTail      *Tail[float64]
	srcTail, dstTail *Tail[int32]

	// blocks, when non-nil, is the graph's canonical edge storage: the
	// compressed block tier. edges/weights are then merely a cached dense
	// materialization, built on demand under denseOnce (Edges() is the
	// only path that forces it). Mutation (AddEdge/AddEdges) materializes
	// and detaches the store, making the dense tier canonical again.
	blocks    *BlockStore
	denseOnce viewOnce

	// dead is the tombstone bitset over dense edge positions (bit i set =
	// edge i retracted); words beyond len(dead) are implicitly alive, so a
	// nil bitset means every edge is live. numDead counts the set bits.
	dead    []uint64
	numDead int

	// version counts mutations; cache layers include it in their keys so
	// entries computed against a superseded edge list can never be served
	// for the mutated graph.
	version atomic.Uint64

	// Cached derived views, built on first use. Each group is guarded by
	// its own viewOnce; the fields themselves are written only inside the
	// owning viewOnce's build.
	vertsOnce    viewOnce
	verts        []VertexID // sorted unique vertex IDs
	idxOnce      viewOnce
	index        map[VertexID]int32 // vertex ID -> dense index into verts
	indexArr     []int32            // compact-ID fast path for index (-1 = absent); nil selects the map
	degOnce      viewOnce
	outDeg       []int32 // per dense index
	inDeg        []int32
	endpointOnce viewOnce
	srcIdx       []int32 // per-edge dense source index, aligned with edges
	dstIdx       []int32 // per-edge dense destination index
	csrOutOnce   viewOnce
	csrOut       *csr
	csrInOnce    viewOnce
	csrIn        *csr
	csrUndirOnce viewOnce
	csrUndir     *csr // undirected, deduplicated, no self loops
	canonOnce    viewOnce
	canon        []uint64 // canonical-undirected-edge bitset over dense edge positions
	symOnce      viewOnce
	symPct       float64 // SymmetryPct
	fpOnce       viewOnce
	fp           uint64 // content fingerprint: edge fold + tombstone fold
	fpEdges      uint64 // sequential edge/weight fold only (extendable by Grow)

	// step is what the generation step that minted this graph resolved (see
	// StepFrom); nil on a graph no step minted, and dropped by mutation.
	step *Step
}

// viewOnce guards one lazily-built derived view for concurrent first use.
// Unlike sync.Once it is resettable (mutation invalidates views), and the
// fast path is a single atomic load. The atomic store after build publishes
// the view fields to every goroutine that observes ready == true.
type viewOnce struct {
	ready atomic.Bool
	mu    sync.Mutex
}

// do runs build exactly once between resets, blocking concurrent callers
// until the view is published.
func (o *viewOnce) do(build func()) {
	if o.ready.Load() {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.ready.Load() {
		build()
		o.ready.Store(true)
	}
}

func (o *viewOnce) reset() { o.ready.Store(false) }

// markBuilt publishes a view that was seeded directly (Grow pre-populates
// derived views on a new generation before it escapes to other goroutines).
func (o *viewOnce) markBuilt() { o.ready.Store(true) }

// built reports whether the view is currently available without building it.
func (o *viewOnce) built() bool { return o.ready.Load() }

// generationSeed hands out process-unique version bases for graphs created
// from other graphs (Clone, Reverse, Grow). Cache layers key artifacts by
// (graph pointer, version); a derived graph allocated at a freed parent's
// address with version 0 would alias the parent's key space, so every
// derived graph starts from a fresh, never-reused version range. The <<32
// shift leaves each generation 2^32 in-place mutations before ranges could
// collide.
var generationSeed atomic.Uint64

func nextGenerationVersion() uint64 { return generationSeed.Add(1) << 32 }

// New returns an empty graph with capacity for hintEdges edges.
func New(hintEdges int) *Graph {
	if hintEdges < 0 {
		hintEdges = 0
	}
	return &Graph{edges: make([]Edge, 0, hintEdges)}
}

// FromEdges builds a graph that takes ownership of edges.
func FromEdges(edges []Edge) *Graph {
	return &Graph{edges: edges}
}

// FromWeightedEdges builds a weighted graph that takes ownership of both
// slices; weights[i] is the weight of edges[i]. A nil weights is the
// unweighted graph (every edge weighs 1). Lengths must match.
func FromWeightedEdges(edges []Edge, weights []float64) (*Graph, error) {
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("graph: %d weights for %d edges", len(weights), len(edges))
	}
	return &Graph{edges: edges, weights: weights}, nil
}

// FromBlocks builds a graph over a block-compressed edge store (see
// BlockBuilder and OpenBlocks). Like other derived-graph constructors it
// starts at a fresh process-unique version.
func FromBlocks(bs *BlockStore) *Graph {
	g := &Graph{blocks: bs}
	g.version.Store(nextGenerationVersion())
	return g
}

// Blocks returns the graph's block store, or nil on the dense tier.
// Consumers that can iterate block-at-a-time check this to avoid forcing
// a dense materialization.
func (g *Graph) Blocks() *BlockStore { return g.blocks }

// BlockBacked reports whether the graph's canonical edge storage is the
// compressed block tier.
func (g *Graph) BlockBacked() bool { return g.blocks != nil }

// ensureDense materializes the dense edge (and weight) slices of a
// block-backed graph, once. The dense copy caches alongside the store;
// Edges()/Weights() document this as the compatibility fallback.
func (g *Graph) ensureDense() {
	if g.blocks == nil {
		return
	}
	g.denseOnce.do(func() {
		ne := g.blocks.numEdges
		edges := make([]Edge, 0, ne)
		var weights []float64
		if g.blocks.weighted {
			weights = make([]float64, 0, ne)
		}
		g.mustEdgeBlocks(func(_ int, es []Edge, ws []float64) {
			edges = append(edges, es...)
			if weights != nil {
				weights = append(weights, ws...)
			}
		})
		g.edges = edges
		g.weights = weights
	})
}

// detachBlocks makes the dense tier canonical before a mutation: the
// materialized slices become the graph's storage and the immutable store
// (possibly shared with clones or parent generations) is dropped.
func (g *Graph) detachBlocks() {
	if g.blocks == nil {
		return
	}
	g.ensureDense()
	g.blocks = nil
	g.denseOnce.reset()
}

// AddEdge appends a directed edge. Any cached views are invalidated.
func (g *Graph) AddEdge(src, dst VertexID) {
	g.detachBlocks()
	g.edges = append(g.edges, Edge{Src: src, Dst: dst})
	if g.weights != nil {
		g.weights = append(g.weights, 1)
	}
	g.invalidate()
}

// AddEdges appends a batch of directed edges (weight 1 each on a weighted
// graph).
func (g *Graph) AddEdges(edges ...Edge) {
	g.detachBlocks()
	g.edges = append(g.edges, edges...)
	if g.weights != nil {
		for range edges {
			g.weights = append(g.weights, 1)
		}
	}
	g.invalidate()
}

func (g *Graph) invalidate() {
	g.version.Add(1)
	g.edgesTail, g.weightsTail, g.srcTail, g.dstTail = nil, nil, nil, nil
	g.vertsOnce.reset()
	g.verts = nil
	g.idxOnce.reset()
	g.index = nil
	g.indexArr = nil
	g.degOnce.reset()
	g.outDeg = nil
	g.inDeg = nil
	g.endpointOnce.reset()
	g.srcIdx = nil
	g.dstIdx = nil
	g.csrOutOnce.reset()
	g.csrOut = nil
	g.csrInOnce.reset()
	g.csrIn = nil
	g.csrUndirOnce.reset()
	g.csrUndir = nil
	g.canonOnce.reset()
	g.canon = nil
	g.symOnce.reset()
	g.fpOnce.reset()
	g.fp = 0
	g.fpEdges = 0
	g.step = nil
}

// fingerprintSeed starts every fingerprint chain; folding edges onto it is
// order-dependent, so a graph and its grown generations never collide.
const fingerprintSeed = 0x637574666974_3031 // "cutfit01"

// foldFingerprint chains edges onto a running fingerprint. Sequential
// chaining is what lets Grow seed a child generation's fingerprint from the
// parent's by folding only the appended suffix.
func foldFingerprint(h uint64, edges []Edge) uint64 {
	for _, e := range edges {
		h = rng.Combine2(h, rng.Combine2(uint64(e.Src), uint64(e.Dst)))
	}
	return h
}

// foldFingerprintW chains weighted edges onto a running fingerprint. A nil
// weights degrades to the unweighted fold, so unweighted graphs keep their
// historical fingerprints.
func foldFingerprintW(h uint64, edges []Edge, weights []float64) uint64 {
	if weights == nil {
		return foldFingerprint(h, edges)
	}
	for i, e := range edges {
		h = rng.Combine2(h, rng.Combine2(uint64(e.Src), uint64(e.Dst)))
		h = rng.Combine2(h, math.Float64bits(weights[i]))
	}
	return h
}

// foldFingerprintOnes folds an unweighted suffix onto a weighted chain:
// every edge carries the implicit weight 1, folded exactly as
// foldFingerprintW would fold an explicit 1.
func foldFingerprintOnes(h uint64, edges []Edge) uint64 {
	one := math.Float64bits(1)
	for _, e := range edges {
		h = rng.Combine2(h, rng.Combine2(uint64(e.Src), uint64(e.Dst)))
		h = rng.Combine2(h, one)
	}
	return h
}

// tombstoneSeed separates the tombstone fold from the edge fold so a
// shrunk graph can never collide with a grown one.
const tombstoneSeed = 0x746f6d6273746e65 // "tombstne"

// foldDeadFingerprint folds the tombstone set onto the edge fingerprint.
// The fold visits dead positions in ascending order, making the result a
// pure function of (edge list, dead set) — independent of the sequence of
// Shrink calls that produced the set, so a decoded snapshot recomputes the
// identical value.
func foldDeadFingerprint(h uint64, dead []uint64, numDead int) uint64 {
	if numDead == 0 {
		return h
	}
	h = rng.Combine2(h, tombstoneSeed)
	for w, word := range dead {
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			h = rng.Combine2(h, uint64(w*64+tz))
			word &= word - 1
		}
	}
	return h
}

// Fingerprint returns a 64-bit content fingerprint of the graph content —
// unlike Version (a process-local mutation counter) it is a pure function
// of the edges, their weights and the tombstone set, so it identifies the
// same graph content across processes. Persistence layers use it to pair
// durable artifacts with the graph they were computed for and as the
// stable part of disk-tier cache keys. Built lazily and cached; mutation
// invalidates it like any other derived view.
func (g *Graph) Fingerprint() uint64 {
	g.fpOnce.do(func() {
		h := uint64(fingerprintSeed)
		weighted := g.Weighted()
		g.mustEdgeBlocks(func(_ int, edges []Edge, weights []float64) {
			if weighted {
				h = foldFingerprintW(h, edges, weights)
			} else {
				h = foldFingerprint(h, edges)
			}
		})
		g.fpEdges = h
		g.fp = foldDeadFingerprint(g.fpEdges, g.dead, g.numDead)
	})
	return g.fp
}

// CheckedFingerprint is Fingerprint with block decode failures returned
// as errors instead of panicking. Restore paths validating untrusted
// on-disk block graphs go through here, where a bad payload is an input
// error, not a programmer error; the computed value is cached exactly as
// Fingerprint's is, so a successful check makes later Fingerprint calls
// free.
func (g *Graph) CheckedFingerprint() (uint64, error) {
	var ferr error
	g.fpOnce.do(func() {
		h := uint64(fingerprintSeed)
		weighted := g.Weighted()
		if ferr = g.edgeBlocks(func(_ int, edges []Edge, weights []float64) error {
			if weighted {
				h = foldFingerprintW(h, edges, weights)
			} else {
				h = foldFingerprint(h, edges)
			}
			return nil
		}); ferr != nil {
			return
		}
		g.fpEdges = h
		g.fp = foldDeadFingerprint(g.fpEdges, g.dead, g.numDead)
	})
	if ferr != nil {
		g.fpOnce.reset()
		return 0, ferr
	}
	return g.fp, nil
}

// errStopIteration signals a deliberate early exit from ForEachEdgeBlock;
// it is swallowed before reaching the caller.
var errStopIteration = errors.New("graph: stop iteration")

// edgeBlocks streams the dense edge list block-at-a-time through fn:
// fn(start, edges, weights) where start is the dense position of edges[0]
// and weights is nil on an unweighted graph. The dense tier yields one
// block (the whole slice); the block tier decodes each block into pooled
// scratch, valid only during the callback. Tombstoned slots are included
// (filter with EdgeAlive on start+i). A non-nil error from fn stops the
// scan; block decode failures surface the same way.
func (g *Graph) edgeBlocks(fn func(start int, edges []Edge, weights []float64) error) error {
	if g.blocks != nil && !g.denseOnce.built() {
		return g.blocks.forEach(fn)
	}
	if len(g.edges) == 0 {
		return nil
	}
	return fn(0, g.edges, g.weights)
}

// mustEdgeBlocks is edgeBlocks for the internal view builders, which have
// no error channel. A block decode failure (an I/O error on a file-backed
// store, or payload corruption) is unrecoverable mid-build and panics —
// the same way an mmap-backed store would surface I/O failure.
func (g *Graph) mustEdgeBlocks(fn func(start int, edges []Edge, weights []float64)) {
	err := g.edgeBlocks(func(start int, edges []Edge, weights []float64) error {
		fn(start, edges, weights)
		return nil
	})
	if err != nil {
		panic("graph: block decode failed: " + err.Error())
	}
}

// ForEachEdgeBlock streams the dense edge list through fn in contiguous
// chunks without materializing it: fn(start, edges, weights) where start
// is the dense position of edges[0] and weights is nil on an unweighted
// graph. On the dense tier fn sees the whole list once; on the block tier
// each block decodes into pooled scratch that is valid only during the
// callback — fn must not retain or modify the slices. Tombstoned slots
// are included, aligned with the dense index space (filter with
// EdgeAlive(start+i)). Returning a non-nil error stops the scan and
// propagates, except errStopIteration-style sentinels the caller defines;
// block decode failures also surface here.
func (g *Graph) ForEachEdgeBlock(fn func(start int, edges []Edge, weights []float64) error) error {
	return g.edgeBlocks(fn)
}

// EdgeSeq returns a range-able sequence over (dense position, edge),
// including tombstoned slots, streaming block-at-a-time on the block
// tier. Breaking out of the range is O(1); the sequence is single-use per
// call but re-obtainable.
func (g *Graph) EdgeSeq() iter.Seq2[int, Edge] {
	return func(yield func(int, Edge) bool) {
		err := g.edgeBlocks(func(start int, edges []Edge, _ []float64) error {
			for i, e := range edges {
				if !yield(start+i, e) {
					return errStopIteration
				}
			}
			return nil
		})
		if err != nil && err != errStopIteration {
			panic("graph: block decode failed: " + err.Error())
		}
	}
}

// EdgeAt returns the edge at dense position i without materializing the
// dense slice: block graphs decode the covering block through a small LRU.
func (g *Graph) EdgeAt(i int) Edge {
	return g.edgeAt(i)
}

func (g *Graph) edgeAt(i int) Edge {
	if g.blocks != nil && !g.denseOnce.built() {
		e, err := g.blocks.EdgeAt(i)
		if err != nil {
			panic("graph: block decode failed: " + err.Error())
		}
		return e
	}
	return g.edges[i]
}

// EdgeRange returns the edges and weights of dense positions [lo, hi).
// On the dense tier the results alias the graph's slices (do not modify);
// on the block tier they are freshly decoded copies. weights is nil on an
// unweighted graph.
func (g *Graph) EdgeRange(lo, hi int) ([]Edge, []float64) {
	if hi <= lo {
		return nil, nil
	}
	if g.blocks == nil || g.denseOnce.built() {
		if g.weights == nil {
			return g.edges[lo:hi:hi], nil
		}
		return g.edges[lo:hi:hi], g.weights[lo:hi:hi]
	}
	bs := g.blocks
	out := make([]Edge, hi-lo)
	var w []float64
	if bs.weighted {
		w = make([]float64, hi-lo)
	}
	sc := blockScratchPool.Get().(*blockScratch)
	defer blockScratchPool.Put(sc)
	for b := lo / bs.blockEdges; b*bs.blockEdges < hi; b++ {
		es, ws, err := bs.DecodeBlockInto(b, sc.edges, sc.weights)
		if err != nil {
			panic("graph: block decode failed: " + err.Error())
		}
		sc.edges = es[:0]
		if ws != nil && !bs.isSharedOnes(ws) {
			sc.weights = ws[:0]
		}
		bLo, _ := bs.BlockRange(b)
		from, to := 0, len(es)
		if bLo < lo {
			from = lo - bLo
		}
		if bLo+to > hi {
			to = hi - bLo
		}
		copy(out[bLo+from-lo:], es[from:to])
		if w != nil {
			copy(w[bLo+from-lo:], ws[from:to])
		}
	}
	return out, w
}

// LookupIndices fills src and dst (each at least len(edges) long) with
// the dense endpoint indices of edges, which must be edges of g. It is
// the batch, allocation-free alternative to EdgeEndpointIndices for
// block-at-a-time consumers that must not materialize O(E) index slices.
func (g *Graph) LookupIndices(edges []Edge, src, dst []int32) {
	g.buildVertexIndex()
	if arr := g.indexArr; arr != nil {
		for i, e := range edges {
			src[i] = arr[e.Src]
			dst[i] = arr[e.Dst]
		}
		return
	}
	idx := g.index
	for i, e := range edges {
		src[i] = idx[e.Src]
		dst[i] = idx[e.Dst]
	}
}

// ForEachEndpointBlock streams the dense endpoint indices of the edge
// positions [lo, hi) through fn in contiguous pieces, in ascending order:
// fn(start, src, dst, weights), where edge start+j goes from dense vertex
// src[j] to dst[j] and, when withWeights is set and the graph is weighted,
// weighs weights[j] (weights is nil otherwise). Tombstoned slots are
// included (filter with EdgeAlive(start+j)).
//
// A dense graph hands fn one piece of its cached EdgeEndpointIndices
// slices, so every consumer after the first pays no lookup at all. A
// block-backed graph never materializes those O(E) slices: it decodes the
// covering blocks one at a time — skipping the weight sidecar unless asked
// for it — and resolves each into pooled block-sized scratch that is valid
// only during the callback. fn must not retain or modify the slices. Safe
// for concurrent use, which is how the partition build calls it: one range
// per worker.
func (g *Graph) ForEachEndpointBlock(lo, hi int, withWeights bool, fn func(start int, src, dst []int32, weights []float64) error) error {
	if hi <= lo {
		return nil
	}
	bs := g.blocks
	if bs == nil {
		src, dst := g.EdgeEndpointIndices()
		var ws []float64
		if withWeights && g.weights != nil {
			ws = g.weights[lo:hi]
		}
		return fn(lo, src[lo:hi], dst[lo:hi], ws)
	}
	sc := blockScratchPool.Get().(*blockScratch)
	defer blockScratchPool.Put(sc)
	for b := lo / bs.blockEdges; b*bs.blockEdges < hi; b++ {
		var (
			es  []Edge
			ws  []float64
			err error
		)
		if withWeights {
			es, ws, err = bs.DecodeBlockInto(b, sc.edges, sc.weights)
		} else {
			es, err = bs.DecodeBlockEdges(b, sc.edges)
		}
		if err != nil {
			return err
		}
		sc.edges = es[:0]
		if ws != nil && !bs.isSharedOnes(ws) {
			sc.weights = ws[:0]
		}
		start := b * bs.blockEdges
		from, to := max(lo-start, 0), min(hi-start, len(es))
		if ws != nil {
			ws = ws[from:to]
		}
		if cap(sc.src) < to-from {
			sc.src = make([]int32, max(to-from, bs.blockEdges))
			sc.dst = make([]int32, len(sc.src))
		}
		src, dst := sc.src[:to-from], sc.dst[:to-from]
		g.LookupIndices(es[from:to], src, dst)
		if err := fn(start+from, src, dst, ws); err != nil {
			return err
		}
	}
	return nil
}

// Version returns the mutation counter: 0 for a graph built by New or
// FromEdges, a fresh process-unique base for graphs derived from another
// graph (Clone, Reverse, Grow), incremented by every AddEdge/AddEdges.
// Cache layers keying artifacts by graph include it so entries for a
// superseded edge list are unreachable.
func (g *Graph) Version() uint64 { return g.version.Load() }

// NumEdges returns the number of dense edge slots, including duplicates,
// self loops and tombstoned edges. Per-edge artifacts (assignments,
// endpoint indices) are aligned with this dense list; use NumLiveEdges for
// the count of edges that are actually present.
func (g *Graph) NumEdges() int {
	if g.blocks != nil {
		return g.blocks.numEdges
	}
	return len(g.edges)
}

// NumLiveEdges returns the number of edges that are not tombstoned.
func (g *Graph) NumLiveEdges() int { return g.NumEdges() - g.numDead }

// NumDeadEdges returns the number of tombstoned edge slots.
func (g *Graph) NumDeadEdges() int { return g.numDead }

// EdgeAlive reports whether dense edge slot i is live (not tombstoned).
func (g *Graph) EdgeAlive(i int) bool {
	w := i >> 6
	if w >= len(g.dead) {
		return true
	}
	return g.dead[w]&(1<<(uint(i)&63)) == 0
}

// Tombstones returns the tombstone bitset over dense edge positions (bit i
// set = edge i retracted); words beyond the slice are implicitly alive and
// a nil return means no edge is tombstoned. Callers must not modify it.
func (g *Graph) Tombstones() []uint64 { return g.dead }

// Edges returns the underlying dense edge slice, including tombstoned
// slots (check EdgeAlive, or Tombstones for bulk scans). Callers must not
// modify it. On a block-backed graph this is the compatibility fallback:
// it materializes (and caches) the full dense slice, defeating the block
// tier's memory advantage — streaming consumers use ForEachEdgeBlock,
// EdgeSeq, EdgeAt or EdgeRange instead.
func (g *Graph) Edges() []Edge {
	g.ensureDense()
	return g.edges
}

// Weighted reports whether the graph carries per-edge weights.
func (g *Graph) Weighted() bool {
	if g.blocks != nil {
		return g.blocks.weighted
	}
	return g.weights != nil
}

// Weights returns the per-edge weight slice aligned with Edges(), or nil
// for an unweighted graph (every edge then weighs 1). Callers must not
// modify it. Like Edges, this materializes a block-backed graph.
func (g *Graph) Weights() []float64 {
	if g.blocks != nil && !g.blocks.weighted {
		return nil
	}
	g.ensureDense()
	return g.weights
}

// EdgeWeight returns the weight of dense edge slot i (1 on an unweighted
// graph), without materializing a block-backed graph.
func (g *Graph) EdgeWeight(i int) float64 {
	if g.blocks != nil && !g.denseOnce.built() {
		w, err := g.blocks.WeightAt(i)
		if err != nil {
			panic("graph: block decode failed: " + err.Error())
		}
		return w
	}
	if g.weights == nil {
		return 1
	}
	return g.weights[i]
}

// buildVerts computes the sorted unique vertex list by scanning the edge
// list. The dense index map is a separate view (buildIndex) so generations
// seeded by Grow — which inherit a merged vertex list without scanning —
// only pay for the map if something actually looks vertices up by ID.
//
// Two passes: a range scan first, and when the ID space is non-negative
// and at most ~8 bits per edge wide — every generator in this module, and
// real SNAP datasets — a bitmap collects the vertex set with no hashing,
// no sort and O(maxID/8) bytes of scratch. Sparse or negative ID spaces
// fall back to the historical map path. Both passes stream block-at-a-time
// so the block tier never materializes the edge list for its vertex view.
func (g *Graph) buildVerts() {
	g.vertsOnce.do(func() {
		ne := g.NumEdges()
		if ne == 0 {
			g.verts = []VertexID{}
			return
		}
		minV, maxV := VertexID(math.MaxInt64), VertexID(math.MinInt64)
		g.mustEdgeBlocks(func(_ int, edges []Edge, _ []float64) {
			for _, e := range edges {
				if e.Src < minV {
					minV = e.Src
				}
				if e.Src > maxV {
					maxV = e.Src
				}
				if e.Dst < minV {
					minV = e.Dst
				}
				if e.Dst > maxV {
					maxV = e.Dst
				}
			}
		})
		if minV >= 0 && bitmapFits(maxV, ne) {
			words := make([]uint64, (int64(maxV)>>6)+1)
			g.mustEdgeBlocks(func(_ int, edges []Edge, _ []float64) {
				for _, e := range edges {
					words[e.Src>>6] |= 1 << (uint64(e.Src) & 63)
					words[e.Dst>>6] |= 1 << (uint64(e.Dst) & 63)
				}
			})
			verts := make([]VertexID, 0, popcount(words))
			for wi, w := range words {
				for w != 0 {
					tz := bits.TrailingZeros64(w)
					verts = append(verts, VertexID(wi*64+tz))
					w &= w - 1
				}
			}
			g.verts = verts
			return
		}
		seen := make(map[VertexID]struct{}, ne)
		g.mustEdgeBlocks(func(_ int, edges []Edge, _ []float64) {
			for _, e := range edges {
				seen[e.Src] = struct{}{}
				seen[e.Dst] = struct{}{}
			}
		})
		verts := make([]VertexID, 0, len(seen))
		for v := range seen {
			verts = append(verts, v)
		}
		sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
		g.verts = verts
	})
}

// bitmapFits is the rule for collecting or checking a vertex set of ne
// edges with a bitmap over [0, maxV]: at most ~8 bits per edge, so the
// scratch never outweighs the edge list. maxV must be non-negative.
func bitmapFits(maxV VertexID, ne int) bool {
	return uint64(maxV) <= uint64(ne)*8+1024
}

// buildIndex computes the vertex ID -> dense index view from the vertex
// list: a compact int32 array when the ID space is dense enough (at most
// 2·|V|+1024 slots, so waste is bounded), the historical map otherwise.
// All internal consumers go through lookup/denseIndexOf, which pick the
// built variant.
func (g *Graph) buildIndex() {
	g.idxOnce.do(func() {
		g.buildVerts()
		n := len(g.verts)
		if n > 0 && g.verts[0] >= 0 && int64(g.verts[n-1]) < int64(2*n+1024) {
			arr := make([]int32, int(g.verts[n-1])+1)
			for i := range arr {
				arr[i] = -1
			}
			for i, v := range g.verts {
				arr[v] = int32(i)
			}
			g.indexArr = arr
			return
		}
		index := make(map[VertexID]int32, n)
		for i, v := range g.verts {
			index[v] = int32(i)
		}
		g.index = index
	})
}

// lookup returns the dense index of v and whether it exists, via whichever
// index variant buildIndex produced. Callers must have built the index.
func (g *Graph) lookup(v VertexID) (int32, bool) {
	if arr := g.indexArr; arr != nil {
		if v < 0 || int64(v) >= int64(len(arr)) {
			return 0, false
		}
		if i := arr[v]; i >= 0 {
			return i, true
		}
		return 0, false
	}
	i, ok := g.index[v]
	return i, ok
}

// denseIndexOf resolves an endpoint of one of the graph's own edges —
// always present, so the absence checks of lookup are skipped.
func (g *Graph) denseIndexOf(v VertexID) int32 {
	if arr := g.indexArr; arr != nil {
		return arr[v]
	}
	return g.index[v]
}

// buildVertexIndex builds both the vertex list and the index map (the
// historical combined entry point; per-edge consumers below want the map).
func (g *Graph) buildVertexIndex() {
	g.buildIndex()
}

// NumVertices returns the number of distinct vertices that appear as an
// endpoint of at least one edge.
func (g *Graph) NumVertices() int {
	g.buildVerts()
	return len(g.verts)
}

// Vertices returns the sorted list of distinct vertex IDs. Callers must not
// modify it.
func (g *Graph) Vertices() []VertexID {
	g.buildVerts()
	return g.verts
}

// Index returns the dense index of v in Vertices() and whether v exists.
func (g *Graph) Index(v VertexID) (int32, bool) {
	g.buildIndex()
	return g.lookup(v)
}

// EdgeEndpointIndices returns the dense endpoint indices of every edge,
// aligned with Edges(): edge i goes from dense vertex src[i] to dst[i].
// The slices are built once and cached, so repeated consumers (the
// partitioned-graph builder runs once per candidate strategy in the
// advisor's empirical-selection loop) pay the vertex-index map lookups a
// single time. Callers must not modify the returned slices. The slices
// are O(E) — consumers that must also serve the block tier stream
// ForEachEndpointBlock instead of calling this.
func (g *Graph) EdgeEndpointIndices() (src, dst []int32) {
	g.endpointOnce.do(func() {
		g.buildVertexIndex()
		ne := g.NumEdges()
		srcIdx := make([]int32, ne)
		dstIdx := make([]int32, ne)
		g.mustEdgeBlocks(func(start int, edges []Edge, _ []float64) {
			g.LookupIndices(edges, srcIdx[start:], dstIdx[start:])
		})
		g.srcIdx = srcIdx
		g.dstIdx = dstIdx
	})
	return g.srcIdx, g.dstIdx
}

// buildDegrees computes in/out degree per dense vertex index. Tombstoned
// edges do not count.
func (g *Graph) buildDegrees() {
	g.degOnce.do(func() {
		g.buildVertexIndex()
		out := make([]int32, len(g.verts))
		in := make([]int32, len(g.verts))
		g.mustEdgeBlocks(func(start int, edges []Edge, _ []float64) {
			for i, e := range edges {
				if g.numDead != 0 && !g.EdgeAlive(start+i) {
					continue
				}
				out[g.denseIndexOf(e.Src)]++
				in[g.denseIndexOf(e.Dst)]++
			}
		})
		g.outDeg = out
		g.inDeg = in
	})
}

// OutDegree returns the out-degree of v (0 if v is not in the graph).
// The index map is ensured separately from the degree view: on a
// generation seeded by Grow the degrees exist before the map does.
func (g *Graph) OutDegree(v VertexID) int {
	g.buildDegrees()
	g.buildIndex()
	if i, ok := g.lookup(v); ok {
		return int(g.outDeg[i])
	}
	return 0
}

// InDegree returns the in-degree of v (0 if v is not in the graph).
func (g *Graph) InDegree(v VertexID) int {
	g.buildDegrees()
	g.buildIndex()
	if i, ok := g.lookup(v); ok {
		return int(g.inDeg[i])
	}
	return 0
}

// OutDegrees returns the out-degree slice aligned with Vertices().
func (g *Graph) OutDegrees() []int32 {
	g.buildDegrees()
	return g.outDeg
}

// InDegrees returns the in-degree slice aligned with Vertices().
func (g *Graph) InDegrees() []int32 {
	g.buildDegrees()
	return g.inDeg
}

// Reverse returns a new graph with every edge direction flipped. The new
// graph starts at a fresh, process-unique nonzero version so cache layers
// keying artifacts by (pointer, version) can never serve it entries that
// belonged to a freed graph reallocated at the same address.
func (g *Graph) Reverse() *Graph {
	if g.blocks != nil && !g.denseOnce.built() {
		// Stream block-at-a-time into a reversed block store: edge
		// positions are preserved, so the tombstone bitset carries over.
		bb := NewBlockBuilder(g.blocks.blockEdges)
		scratch := make([]Edge, 0, g.blocks.blockEdges)
		g.mustEdgeBlocks(func(_ int, edges []Edge, weights []float64) {
			scratch = scratch[:0]
			for _, e := range edges {
				scratch = append(scratch, Edge{Src: e.Dst, Dst: e.Src})
			}
			if g.blocks.weighted && weights == nil {
				weights = g.blocks.onesSlice(len(edges))
			}
			bb.Append(scratch, weights)
		})
		out := FromBlocks(bb.Finish())
		out.dead = cloneDead(g.dead)
		out.numDead = g.numDead
		return out
	}
	rev := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		rev[i] = Edge{Src: e.Dst, Dst: e.Src}
	}
	out := FromEdges(rev)
	out.weights = cloneWeights(g.weights)
	out.dead = cloneDead(g.dead)
	out.numDead = g.numDead
	out.version.Store(nextGenerationVersion())
	return out
}

// Clone returns an independent copy of the graph: mutating either graph
// can never affect the other. On the dense tier the edge list, weights and
// tombstones are deep-copied; a block-backed clone shares the immutable
// block store (mutation detaches it first, so independence holds) and
// copies only the tombstones. Like Reverse, the copy starts at a fresh
// nonzero version, never shared with any other graph in this process.
func (g *Graph) Clone() *Graph {
	if g.blocks != nil && !g.denseOnce.built() {
		out := FromBlocks(g.blocks)
		out.dead = cloneDead(g.dead)
		out.numDead = g.numDead
		return out
	}
	edges := make([]Edge, len(g.edges))
	copy(edges, g.edges)
	out := FromEdges(edges)
	out.weights = cloneWeights(g.weights)
	out.dead = cloneDead(g.dead)
	out.numDead = g.numDead
	out.version.Store(nextGenerationVersion())
	return out
}

func cloneWeights(w []float64) []float64 {
	if w == nil {
		return nil
	}
	out := make([]float64, len(w))
	copy(out, w)
	return out
}

func cloneDead(d []uint64) []uint64 {
	if d == nil {
		return nil
	}
	out := make([]uint64, len(d))
	copy(out, d)
	return out
}

// popcount counts the set bits of a tombstone bitset.
func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// RestoreWeights attaches a decoded weight slice to the graph (persistence
// layers reassemble graph state section by section). The weights must
// align with the dense edge list and be finite and positive. Only the
// fingerprint view is invalidated — weights change no structural view.
func (g *Graph) RestoreWeights(weights []float64) error {
	if g.blocks != nil {
		return fmt.Errorf("graph: cannot restore a dense weight slice onto a block-backed graph (weights live in the block sidecars)")
	}
	if weights == nil {
		g.weights = nil
		g.fpOnce.reset()
		return nil
	}
	if len(weights) != len(g.edges) {
		return fmt.Errorf("graph: %d weights for %d edges", len(weights), len(g.edges))
	}
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("graph: edge %d has invalid weight %v (must be finite and positive)", i, w)
		}
	}
	g.weights = weights
	g.fpOnce.reset()
	return nil
}

// RestoreTombstones attaches a decoded tombstone bitset. The bitset must
// fit the dense edge list (no bits at or beyond NumEdges) and numDead must
// equal its popcount. The vertex set is unchanged by tombstones (dead
// edges keep their endpoints listed), so only the views that skip dead
// edges — degrees, CSRs, the canonical-edge and symmetry views, the
// fingerprint — are invalidated.
func (g *Graph) RestoreTombstones(dead []uint64, numDead int) error {
	ne := g.NumEdges()
	if len(dead)*64 > (ne+63)&^63 {
		return fmt.Errorf("graph: tombstone bitset spans %d words for %d edges", len(dead), ne)
	}
	if tail := ne & 63; tail != 0 && len(dead) == (ne+63)/64 {
		if dead[len(dead)-1]>>uint(tail) != 0 {
			return fmt.Errorf("graph: tombstone bitset has bits beyond edge %d", ne-1)
		}
	}
	if pc := popcount(dead); pc != numDead {
		return fmt.Errorf("graph: tombstone count %d disagrees with bitset popcount %d", numDead, pc)
	}
	g.dead = dead
	g.numDead = numDead
	g.degOnce.reset()
	g.outDeg, g.inDeg = nil, nil
	g.csrOutOnce.reset()
	g.csrOut = nil
	g.csrInOnce.reset()
	g.csrIn = nil
	g.csrUndirOnce.reset()
	g.csrUndir = nil
	g.canonOnce.reset()
	g.canon = nil
	g.symOnce.reset()
	g.fpOnce.reset()
	return nil
}

// Validate checks internal consistency and returns an error describing the
// first problem found. A valid graph has no negative vertex IDs (negative
// IDs are legal for Graph itself but rejected by the generators and the
// engine, which reserve them for internal sentinels), weights aligned with
// the dense edge list (finite, positive), and a tombstone bitset whose
// popcount matches the recorded dead count with no bits beyond the list.
func (g *Graph) Validate() error {
	if g.blocks == nil && g.weights != nil && len(g.weights) != len(g.edges) {
		return fmt.Errorf("graph: %d weights for %d edges", len(g.weights), len(g.edges))
	}
	weighted := g.Weighted()
	if err := g.edgeBlocks(func(start int, edges []Edge, weights []float64) error {
		for i, e := range edges {
			if e.Src < 0 || e.Dst < 0 {
				return fmt.Errorf("graph: edge %d (%d -> %d) has negative vertex ID", start+i, e.Src, e.Dst)
			}
		}
		if weighted && weights != nil {
			for i, w := range weights {
				if !(w > 0) || math.IsInf(w, 1) {
					return fmt.Errorf("graph: edge %d has invalid weight %v (must be finite and positive)", start+i, w)
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ne := g.NumEdges()
	if pc := popcount(g.dead); pc != g.numDead {
		return fmt.Errorf("graph: tombstone count %d disagrees with bitset popcount %d", g.numDead, pc)
	}
	for i := ne; i < len(g.dead)*64; i++ {
		if !g.EdgeAlive(i) {
			return fmt.Errorf("graph: tombstone bitset has bits beyond edge %d", ne-1)
		}
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{V=%d, E=%d}", g.NumVertices(), g.NumEdges())
}

// csr is a compressed sparse row adjacency structure over dense vertex
// indices: neighbors of dense vertex i are adj[offsets[i]:offsets[i+1]].
type csr struct {
	offsets []int64
	adj     []int32
}

func (c *csr) neighbors(i int32) []int32 {
	return c.adj[c.offsets[i]:c.offsets[i+1]]
}

// buildCSR constructs a CSR view. direction selects which endpoint indexes
// the rows: "out" rows are sources, "in" rows are destinations. Neighbor
// lists are sorted by dense index. If dedup is true, duplicate neighbors and
// self loops are removed (used for the undirected projection).
func (g *Graph) buildCSR(direction string, undirected, dedup bool) *csr {
	g.buildVertexIndex()
	n := len(g.verts)
	counts := make([]int64, n+1)
	add := func(a, b int32) {
		counts[a+1]++
	}
	g.mustEdgeBlocks(func(start int, edges []Edge, _ []float64) {
		for i, e := range edges {
			if g.numDead != 0 && !g.EdgeAlive(start+i) {
				continue
			}
			s, d := g.denseIndexOf(e.Src), g.denseIndexOf(e.Dst)
			if undirected {
				if s == d {
					continue
				}
				add(s, d)
				add(d, s)
				continue
			}
			if direction == "out" {
				add(s, d)
			} else {
				add(d, s)
			}
		}
	})
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	offsets := counts
	adj := make([]int32, offsets[n])
	cursor := make([]int64, n)
	put := func(a, b int32) {
		adj[offsets[a]+cursor[a]] = b
		cursor[a]++
	}
	g.mustEdgeBlocks(func(start int, edges []Edge, _ []float64) {
		for i, e := range edges {
			if g.numDead != 0 && !g.EdgeAlive(start+i) {
				continue
			}
			s, d := g.denseIndexOf(e.Src), g.denseIndexOf(e.Dst)
			if undirected {
				if s == d {
					continue
				}
				put(s, d)
				put(d, s)
				continue
			}
			if direction == "out" {
				put(s, d)
			} else {
				put(d, s)
			}
		}
	})
	c := &csr{offsets: offsets, adj: adj}
	for i := int32(0); i < int32(n); i++ {
		slices.Sort(c.neighbors(i))
	}
	if dedup {
		c = c.deduplicate(n)
	}
	return c
}

// deduplicate removes repeated entries from each (already sorted) row.
func (c *csr) deduplicate(n int) *csr {
	newOffsets := make([]int64, n+1)
	newAdj := make([]int32, 0, len(c.adj))
	for i := int32(0); i < int32(n); i++ {
		row := c.neighbors(i)
		var prev int32 = -1
		for _, v := range row {
			if v != prev {
				newAdj = append(newAdj, v)
				prev = v
			}
		}
		newOffsets[i+1] = int64(len(newAdj))
	}
	return &csr{offsets: newOffsets, adj: newAdj}
}

// outCSR returns (building if needed) the out-adjacency CSR.
func (g *Graph) outCSR() *csr {
	g.csrOutOnce.do(func() { g.csrOut = g.buildCSR("out", false, false) })
	return g.csrOut
}

// inCSR returns the in-adjacency CSR.
func (g *Graph) inCSR() *csr {
	g.csrInOnce.do(func() { g.csrIn = g.buildCSR("in", false, false) })
	return g.csrIn
}

// undirCSR returns the undirected, deduplicated, loop-free adjacency CSR.
func (g *Graph) undirCSR() *csr {
	g.csrUndirOnce.do(func() { g.csrUndir = g.buildCSR("", true, true) })
	return g.csrUndir
}

// OutNeighbors returns the dense indices of out-neighbors of dense vertex i,
// sorted, possibly with duplicates if the graph has parallel edges. Callers
// must not modify the returned slice.
func (g *Graph) OutNeighbors(i int32) []int32 { return g.outCSR().neighbors(i) }

// InNeighbors returns the dense indices of in-neighbors of dense vertex i.
func (g *Graph) InNeighbors(i int32) []int32 { return g.inCSR().neighbors(i) }

// UndirectedNeighbors returns the sorted, deduplicated, loop-free neighbor
// set of dense vertex i in the undirected projection of the graph.
func (g *Graph) UndirectedNeighbors(i int32) []int32 { return g.undirCSR().neighbors(i) }

// CanonicalEdges returns the canonical-undirected-edge view: a bitset over
// dense edge positions (bit i of word i/64) marking the one live edge that
// represents each undirected pair {u,v}, u ≠ v — the first occurrence of
// the u<v orientation, or the first occurrence of (v,u) when the forward
// orientation never appears live. Self loops and tombstoned slots are never
// canonical, so the set bits number exactly the edges of the undirected
// projection. Consumers that must visit every undirected edge once while
// staying aligned with per-edge artifacts (Triangle Count over a
// partitioned topology) read it instead of deduplicating per request.
//
// The view is built once per generation, without hashing: every pair has a
// unique slot in the undirected CSR (the higher endpoint's position in the
// lower endpoint's row), so two bitsets over those slots — "forward
// orientation present" and "pair already represented" — replace the
// edge-pair maps, and the edge list is streamed block-at-a-time so a
// block-backed graph is never densified. It costs NumEdges/8 bytes
// retained. Callers must not modify it.
func (g *Graph) CanonicalEdges() []uint64 {
	g.canonOnce.do(func() { g.canon = g.buildCanonicalEdges() })
	return g.canon
}

func (g *Graph) buildCanonicalEdges() []uint64 {
	c := g.undirCSR() // also builds the vertex index denseIndexOf reads
	canon := make([]uint64, (g.NumEdges()+63)/64)
	// slot locates the pair lo<hi (dense indices, which order like vertex
	// IDs) in the CSR; the pair is live, so the search always hits.
	slot := func(lo, hi int32) int {
		k, _ := slices.BinarySearch(c.neighbors(lo), hi)
		return int(c.offsets[lo]) + k
	}
	slotWords := (len(c.adj) + 63) / 64
	forward := make([]uint64, slotWords)
	g.mustEdgeBlocks(func(start int, edges []Edge, _ []float64) {
		for i, e := range edges {
			if e.Src >= e.Dst || (g.numDead != 0 && !g.EdgeAlive(start+i)) {
				continue
			}
			s := slot(g.denseIndexOf(e.Src), g.denseIndexOf(e.Dst))
			forward[s>>6] |= 1 << (uint(s) & 63)
		}
	})
	chosen := make([]uint64, slotWords)
	g.mustEdgeBlocks(func(start int, edges []Edge, _ []float64) {
		for i, e := range edges {
			if e.Src == e.Dst || (g.numDead != 0 && !g.EdgeAlive(start+i)) {
				continue
			}
			lo, hi := e.Src, e.Dst
			if lo > hi {
				lo, hi = hi, lo
			}
			s := slot(g.denseIndexOf(lo), g.denseIndexOf(hi))
			w, bit := s>>6, uint64(1)<<(uint(s)&63)
			if chosen[w]&bit != 0 || (e.Src > e.Dst && forward[w]&bit != 0) {
				continue
			}
			chosen[w] |= bit
			canon[(start+i)>>6] |= 1 << (uint(start+i) & 63)
		}
	})
	return canon
}
