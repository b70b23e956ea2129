package graph

import (
	"sync/atomic"
	"unsafe"
)

// Tail is the backing array of a per-edge sequence that successive
// generations share: an edge list, an endpoint view, an assignment's PIDs.
// Every generation holds a length- and capacity-clamped slice of it, so no
// holder can read or append past its own extent, and the slots beyond the
// longest slice handed out are spare capacity. Extending the newest slice
// claims spare slots with one compare-and-swap and writes only them — slots
// no existing slice covers — so a generation step costs the suffix, not a
// copy of the prefix, and readers of older generations are never raced.
// Whoever loses the claim (a second child of one parent, a full array)
// copies, exactly as before Tail existed.
type Tail[T any] struct {
	used atomic.Int64 // slots handed out so far: buf[:used] is immutable
	buf  []T          // len == cap; never reallocated
}

// tailHeadroom is the spare capacity a fresh Tail is allocated with, as a
// fraction of the extended length: a quarter absorbs every append up to the
// compaction threshold (which rewrites the list anyway) with one copy.
const tailHeadroom = 4

// Extend returns prefix followed by suffix, clamped to its own length, and
// the Tail that backs the result. When prefix is the whole claimed extent of
// t and the spare capacity fits the suffix, the suffix is written in place
// and t itself is returned; otherwise — t is nil, prefix lives elsewhere, a
// sibling already claimed the slots, or capacity ran out — both are copied
// into a fresh Tail with headroom. prefix is never modified either way.
func (t *Tail[T]) Extend(prefix, suffix []T) ([]T, *Tail[T]) {
	n, m := len(prefix), len(suffix)
	if t != nil && n > 0 && &prefix[0] == &t.buf[0] && n+m <= len(t.buf) &&
		t.used.CompareAndSwap(int64(n), int64(n+m)) {
		copy(t.buf[n:], suffix)
		return t.buf[: n+m : n+m], t
	}
	nt := &Tail[T]{buf: make([]T, n+m+(n+m)/tailHeadroom)}
	copy(nt.buf, prefix)
	copy(nt.buf[n:], suffix)
	nt.used.Store(int64(n + m))
	return nt.buf[: n+m : n+m], nt
}

// SliceShare prices the storage behind s: the whole backing array when s
// lives in t (every generation of the lineage then reports the same key and
// size), else just s — pass a nil t for a slice with no Tail. A nil or empty
// s has no storage. The key is the array's first element.
func SliceShare[T any](s []T, t *Tail[T]) (Share, bool) {
	n := len(s)
	if n == 0 {
		return Share{}, false
	}
	if t != nil && &s[0] == &t.buf[0] {
		n = len(t.buf)
	}
	var zero T
	return Share{Key: &s[0], Bytes: int64(n) * int64(unsafe.Sizeof(zero))}, true
}

// Share is heap storage that several artifacts may keep alive together — a
// lineage's edge array, a vertex list a child inherited, a tombstone bitset
// an append step left untouched. Key identifies the allocation (two holders
// of the same storage report equal keys) and Bytes prices it, so a cache
// holding several holders charges the storage once and releases the charge
// with the last of them.
type Share struct {
	Key   any
	Bytes int64
}

// Shares lists the heap storage g keeps alive, one Share per allocation
// that a related graph may also hold — the dense edge and endpoint
// arrays (a lineage's generations all report the same backing arrays), the
// vertex list (inherited when a step adds no vertex), the tombstone bitset
// (inherited by an append step), a block store (shared by a pure shrink) —
// plus one keyed by g itself for what is never shared: the degree tables,
// the ID index, the CSR views and the canonical-edge bitset, each counted
// once built, and the endpoint indices its generation step resolved. Cache
// layers sum Bytes over distinct keys to price exactly what their graphs
// pin. Safe to call while views are being built; a view under construction
// is simply not counted yet.
func (g *Graph) Shares() []Share {
	out := make([]Share, 0, 8)
	add := func(s Share, ok bool) {
		if ok {
			out = append(out, s)
		}
	}
	if g.blocks != nil {
		out = append(out, Share{Key: g.blocks, Bytes: g.blocks.HeapBytes()})
	}
	if g.blocks == nil || g.denseOnce.built() {
		add(SliceShare(g.edges, g.edgesTail))
	}
	if g.endpointOnce.built() {
		add(SliceShare(g.srcIdx, g.srcTail))
		add(SliceShare(g.dstIdx, g.dstTail))
	}
	if g.vertsOnce.built() {
		add(SliceShare(g.verts, nil))
	}
	add(SliceShare(g.dead, nil))

	var own int64
	if g.degOnce.built() {
		own += int64(len(g.outDeg)+len(g.inDeg)) * 4
	}
	if g.idxOnce.built() {
		// A map entry costs roughly three words once buckets and load factor
		// are counted.
		own += int64(len(g.indexArr))*4 + int64(len(g.index))*24
	}
	csrBytes := func(c *csr) int64 { return int64(len(c.offsets))*8 + int64(len(c.adj))*4 }
	if g.csrOutOnce.built() {
		own += csrBytes(g.csrOut)
	}
	if g.csrInOnce.built() {
		own += csrBytes(g.csrIn)
	}
	if g.csrUndirOnce.built() {
		own += csrBytes(g.csrUndir)
	}
	if g.canonOnce.built() {
		own += int64(len(g.canon)) * 8
	}
	if st := g.step; st != nil {
		own += int64(len(st.SufSrc)+len(st.SufDst)+len(st.RemSrc)+len(st.RemDst)) * 4
	}
	return append(out, Share{Key: g, Bytes: own})
}
