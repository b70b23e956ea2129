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
// A Graph is immutable once its constructor returns. A change of edges is a
// generation step (Grow, Shrink, SlideWindow) that derives a new Graph and
// leaves its parent untouched, as GraphX's graphs do.
//
// Edges live in one of two tiers. The dense tier is a plain []Edge slice —
// cheap to build, O(E) resident. The block tier (BlockStore) keeps edges
// delta-varint-encoded in fixed-size blocks that decode on demand,
// optionally served straight from an on-disk file, so a graph's resident
// cost is the compressed bytes (or nothing at all). Both tiers
// answer the same reads (ForEachEdgeBlock, EdgeRange, EdgesAt,
// ForEachEndpointBlock) and produce bit-identical derived views,
// fingerprints and generation chains; only Edges(), which promises a dense
// slice, forces a block graph to materialize.
package graph

import (
	"fmt"
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

// Graph is a directed multigraph stored as an edge list. It is immutable
// once constructed: generation steps derive new graphs from it, and
// adjacency views are built lazily and cached.
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
// Concurrency: a Graph is immutable and safe for any number of concurrent
// readers, including concurrent *first* accesses — every lazy view build is
// guarded by its own viewOnce, so N goroutines racing on an unbuilt view
// elect one builder and the rest observe the finished result. This is what
// lets one graph back many simultaneous engine runs and cache lookups in
// the serving layer.
type Graph struct {
	edges []Edge

	// edgesTail, srcTail and dstTail are the shared backing arrays behind
	// edges, srcIdx and dstIdx on a generation
	// produced by Grow (see Tail): the slices above are clamped to this
	// generation's length, the arrays may hold spare capacity that the next
	// Grow claims instead of copying. Nil on a graph that owns its slices
	// outright.
	edgesTail        *Tail[Edge]
	srcTail, dstTail *Tail[int32]

	// blocks, when non-nil, is the graph's canonical edge storage: the
	// compressed block tier. edges is then merely a cached dense
	// materialization, built on demand under denseOnce (Edges() is the
	// only path that forces it).
	blocks    *BlockStore
	denseOnce viewOnce

	// dead is the tombstone bitset over dense edge positions (bit i set =
	// edge i retracted); words beyond len(dead) are implicitly alive, so a
	// nil bitset means every edge is live. numDead counts the set bits.
	dead    []uint64
	numDead int

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
	nearOnce     viewOnce
	nearEdges    int // NearIDEdges(LocalityWindow)
	fpOnce       viewOnce
	fp           uint64 // content fingerprint: edge fold + tombstone fold
	fpEdges      uint64 // sequential edge fold only (extendable by Grow)

	// step is what the generation step that minted this graph resolved (see
	// StepFrom); nil on a graph no step minted.
	step *Step
}

// viewOnce guards one lazily-built derived view for concurrent first use.
// Unlike sync.Once a failed build publishes nothing (see tryDo), and the
// fast path is a single atomic load. The atomic store after build publishes
// the view fields to every goroutine that observes ready == true.
type viewOnce struct {
	ready atomic.Bool
	mu    sync.Mutex
}

// do runs build exactly once, blocking concurrent callers until the view is
// published.
func (o *viewOnce) do(build func()) {
	if o.ready.Load() {
		return
	}
	_ = o.tryDo(func() error { build(); return nil })
}

// tryDo is do for a build that can fail: the view is published only when
// build returns nil, so a later call builds again.
func (o *viewOnce) tryDo(build func() error) error {
	if o.ready.Load() {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ready.Load() {
		return nil
	}
	if err := build(); err != nil {
		return err
	}
	o.ready.Store(true)
	return nil
}

// markBuilt publishes a view that was seeded directly (Grow pre-populates
// derived views on a new generation before it escapes to other goroutines).
func (o *viewOnce) markBuilt() { o.ready.Store(true) }

// built reports whether the view is currently available without building it.
func (o *viewOnce) built() bool { return o.ready.Load() }

// FromEdges builds a graph that takes ownership of edges.
func FromEdges(edges []Edge) *Graph {
	return &Graph{edges: edges}
}

// FromBlocks builds a graph over a block-compressed edge store (see
// BlockBuilder and OpenBlocks).
func FromBlocks(bs *BlockStore) *Graph { return &Graph{blocks: bs} }

// Blocks returns the graph's block store, or nil on the dense tier.
// Consumers that can iterate block-at-a-time check this to avoid forcing
// a dense materialization.
func (g *Graph) Blocks() *BlockStore { return g.blocks }

// BlockBacked reports whether the graph's canonical edge storage is the
// compressed block tier.
func (g *Graph) BlockBacked() bool { return g.blocks != nil }

// ensureDense materializes the dense edge slice of a block-backed graph,
// once. The dense copy caches alongside the store; Edges() documents this
// as the compatibility fallback.
func (g *Graph) ensureDense() {
	if g.blocks == nil {
		return
	}
	g.denseOnce.do(func() {
		edges := make([]Edge, 0, g.blocks.numEdges)
		g.mustEdgeBlocks(func(_ int, es []Edge) {
			edges = append(edges, es...)
		})
		g.edges = edges
	})
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

// Fingerprint returns a 64-bit content fingerprint of the graph: a pure
// function of the edges and the tombstone set, so it
// identifies the same graph content across processes. Persistence layers
// use it to pair durable artifacts with the graph they were computed for
// and as the stable part of disk-tier cache keys. Built lazily and cached.
// A block decode failure panics; see CheckedFingerprint.
func (g *Graph) Fingerprint() uint64 {
	fp, err := g.CheckedFingerprint()
	if err != nil {
		panic("graph: block decode failed: " + err.Error())
	}
	return fp
}

// CheckedFingerprint is Fingerprint with block decode failures returned
// as errors instead of panicking. Restore paths validating untrusted
// on-disk block graphs go through here, where a bad payload is an input
// error, not a programmer error. Only a successful computation is cached,
// so it makes later Fingerprint calls free and a failed one publishes
// nothing.
func (g *Graph) CheckedFingerprint() (uint64, error) {
	err := g.fpOnce.tryDo(func() error {
		h := uint64(fingerprintSeed)
		if err := g.ForEachEdgeBlock(func(_ int, edges []Edge) error {
			h = foldFingerprint(h, edges)
			return nil
		}); err != nil {
			return err
		}
		g.fpEdges = h
		g.fp = foldDeadFingerprint(h, g.dead, g.numDead)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return g.fp, nil
}

// mustEdgeBlocks is ForEachEdgeBlock for the internal view builders, which
// have no error channel. A block decode failure (an I/O error on a
// file-backed store, or payload corruption) is unrecoverable mid-build and
// panics — the same way an mmap-backed store would surface I/O failure.
func (g *Graph) mustEdgeBlocks(fn func(start int, edges []Edge)) {
	err := g.ForEachEdgeBlock(func(start int, edges []Edge) error {
		fn(start, edges)
		return nil
	})
	if err != nil {
		panic("graph: block decode failed: " + err.Error())
	}
}

// ForEachEdgeBlock streams the dense edge list through fn in contiguous
// chunks without materializing it: fn(start, edges) where start is the
// dense position of edges[0]. On the dense tier fn sees the whole list
// once; on the block tier each block decodes into pooled scratch that is
// valid only during the callback — fn must not retain or modify the slice.
// Tombstoned slots are included, aligned with the dense index space (filter
// with EdgeAlive(start+i)). Returning a non-nil error stops the scan and
// propagates (a caller stopping early defines its own sentinel); block
// decode failures also surface here.
func (g *Graph) ForEachEdgeBlock(fn func(start int, edges []Edge) error) error {
	if g.blocks != nil && !g.denseOnce.built() {
		return g.blocks.forEach(fn)
	}
	if len(g.edges) == 0 {
		return nil
	}
	return fn(0, g.edges)
}

// EdgesAt returns the edges at the dense positions idx (tombstoned slots
// included), which ascend. The dense tier indexes its slice; the block tier
// decodes each covering block once.
func (g *Graph) EdgesAt(idx []int) []Edge {
	out := make([]Edge, len(idx))
	bs := g.blocks
	if bs == nil || g.denseOnce.built() {
		for k, i := range idx {
			out[k] = g.edges[i]
		}
		return out
	}
	sc := getScratch()
	defer blockScratchPool.Put(sc)
	var es []Edge
	cur := -1
	for k, i := range idx {
		if b := i / bs.blockEdges; b != cur {
			var err error
			if es, err = bs.decode(b, sc); err != nil {
				panic("graph: block decode failed: " + err.Error())
			}
			cur = b
		}
		out[k] = es[i-cur*bs.blockEdges]
	}
	return out
}

// EdgeRange returns the edges of dense positions [lo, hi). On the dense
// tier the result aliases the graph's slice (do not modify); on the block
// tier it is a freshly decoded copy.
func (g *Graph) EdgeRange(lo, hi int) []Edge {
	if hi <= lo {
		return nil
	}
	if g.blocks == nil || g.denseOnce.built() {
		return g.edges[lo:hi:hi]
	}
	bs := g.blocks
	out := make([]Edge, hi-lo)
	sc := getScratch()
	defer blockScratchPool.Put(sc)
	for b := lo / bs.blockEdges; b*bs.blockEdges < hi; b++ {
		es, err := bs.decode(b, sc)
		if err != nil {
			panic("graph: block decode failed: " + err.Error())
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
	}
	return out
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
// fn(start, src, dst), where edge start+j goes from dense vertex src[j] to
// dst[j]. Tombstoned slots are included (filter with EdgeAlive(start+j)).
//
// A dense graph hands fn one piece of its cached EdgeEndpointIndices
// slices, so every consumer after the first pays no lookup at all. A
// block-backed graph never materializes those O(E) slices: it decodes the
// covering blocks one at a time and resolves each into pooled block-sized
// scratch that is valid
// only during the callback. fn must not retain or modify the slices. Safe
// for concurrent use, which is how the partition build calls it: one range
// per worker.
func (g *Graph) ForEachEndpointBlock(lo, hi int, fn func(start int, src, dst []int32) error) error {
	if hi <= lo {
		return nil
	}
	bs := g.blocks
	if bs == nil {
		src, dst := g.EdgeEndpointIndices()
		return fn(lo, src[lo:hi], dst[lo:hi])
	}
	sc := getScratch()
	defer blockScratchPool.Put(sc)
	for b := lo / bs.blockEdges; b*bs.blockEdges < hi; b++ {
		es, err := bs.decode(b, sc)
		if err != nil {
			return err
		}
		start := b * bs.blockEdges
		from, to := max(lo-start, 0), min(hi-start, len(es))
		if cap(sc.src) < to-from {
			sc.src = make([]int32, max(to-from, bs.blockEdges))
			sc.dst = make([]int32, len(sc.src))
		}
		src, dst := sc.src[:to-from], sc.dst[:to-from]
		g.LookupIndices(es[from:to], src, dst)
		if err := fn(start+from, src, dst); err != nil {
			return err
		}
	}
	return nil
}

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
// EdgeRange or EdgesAt instead.
func (g *Graph) Edges() []Edge {
	g.ensureDense()
	return g.edges
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
		g.mustEdgeBlocks(func(_ int, edges []Edge) {
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
			g.mustEdgeBlocks(func(_ int, edges []Edge) {
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
		g.mustEdgeBlocks(func(_ int, edges []Edge) {
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
		g.mustEdgeBlocks(func(start int, edges []Edge) {
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
		g.mustEdgeBlocks(func(start int, edges []Edge) {
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

// popcount counts the set bits of a tombstone bitset.
func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// checkTombstones checks a tombstone bitset against a dense edge list of ne
// slots: no words or bits at or beyond ne, and numDead its popcount.
func checkTombstones(dead []uint64, numDead, ne int) error {
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
	return nil
}

// Validate checks internal consistency and returns an error describing the
// first problem found. A valid graph has no negative vertex IDs (negative
// IDs are legal for Graph itself but rejected by the generators and the
// engine, which reserve them for internal sentinels) and a tombstone bitset
// that fits the list with a popcount matching the recorded dead count.
func (g *Graph) Validate() error {
	if err := g.ForEachEdgeBlock(func(start int, edges []Edge) error {
		for i, e := range edges {
			if e.Src < 0 || e.Dst < 0 {
				return fmt.Errorf("graph: edge %d (%d -> %d) has negative vertex ID", start+i, e.Src, e.Dst)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return checkTombstones(g.dead, g.numDead, g.NumEdges())
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
	g.mustEdgeBlocks(func(start int, edges []Edge) {
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
	g.mustEdgeBlocks(func(start int, edges []Edge) {
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
	g.mustEdgeBlocks(func(start int, edges []Edge) {
		for i, e := range edges {
			if e.Src >= e.Dst || (g.numDead != 0 && !g.EdgeAlive(start+i)) {
				continue
			}
			s := slot(g.denseIndexOf(e.Src), g.denseIndexOf(e.Dst))
			forward[s>>6] |= 1 << (uint(s) & 63)
		}
	})
	chosen := make([]uint64, slotWords)
	g.mustEdgeBlocks(func(start int, edges []Edge) {
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
