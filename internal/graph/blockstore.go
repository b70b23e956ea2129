package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// DefaultBlockEdges is the block granularity used when a caller passes 0:
// 64K edges per block keeps a decoded block around 1 MiB of scratch while
// amortizing per-block bookkeeping over enough edges that the delta-varint
// encoding wins big on real (locality-heavy) edge lists.
const DefaultBlockEdges = 1 << 16

// blockCacheCap bounds the per-store LRU of decoded blocks used by random
// access (EdgeAt / EdgeWeight / EdgeRange). Full scans bypass the cache and
// decode into pooled scratch instead, so the cap only needs to cover a
// handful of hot blocks.
const blockCacheCap = 8

// blockRef describes one block's encoded payload. A block lives either on
// the heap (enc non-nil; EncodeEdges always emits at least the count byte,
// so a heap block's enc is never empty) or in the store's backing ReaderAt
// (enc nil, off/encLen/crc locate and check the payload). The weight
// sidecar is raw little-endian float64s, one per edge; a nil wenc (heap) or
// zero wencLen (file) means the block's weights are implicitly all ones —
// the common case for unweighted history inside a weighted store.
type blockRef struct {
	count int32
	enc   []byte
	wenc  []byte

	off    int64
	encLen uint32
	crc    uint32

	woff    int64
	wencLen uint32
	wcrc    uint32
}

// BlockStore is the memory-lean edge tier: edges in fixed-size blocks,
// each encoded with the same delta-varint codec the snapshot format uses,
// with optional per-block weight sidecars. Blocks decode on demand — full
// scans stream through pooled scratch, random access goes through a small
// LRU of hot decoded blocks — so a store's resident cost is the encoded
// bytes (or nothing at all for a ReaderAt-backed store serving blocks
// straight from a file).
//
// A BlockStore is immutable once built and safe for concurrent readers.
// A generation step (Grow/Shrink/SlideWindow) builds a new store
// that shares every sealed full block with its parent; tombstones are NOT
// stored here — the owning Graph keeps its position-indexed tombstone
// bitset, which works unchanged because blocks never splice edge positions
// (blockEdges is a multiple of 64, so tombstone words never straddle a
// block boundary).
type BlockStore struct {
	blockEdges int
	numEdges   int
	weighted   bool
	refs       []blockRef
	src        io.ReaderAt // backing file for refs with enc == nil

	mu    sync.Mutex
	cache map[int]*decodedBlock
	order []int // LRU, oldest first
	ones  []float64
}

// decodedBlock is one cached decode. Cached blocks are never mutated after
// insertion, so readers may hold them across an eviction.
type decodedBlock struct {
	edges   []Edge
	weights []float64 // nil on an unweighted store
}

// NumEdges returns the total number of edges across all blocks.
func (bs *BlockStore) NumEdges() int { return bs.numEdges }

// NumBlocks returns the number of blocks.
func (bs *BlockStore) NumBlocks() int { return len(bs.refs) }

// BlockEdges returns the block granularity (every block but the last holds
// exactly this many edges).
func (bs *BlockStore) BlockEdges() int { return bs.blockEdges }

// Weighted reports whether the store carries per-edge weights.
func (bs *BlockStore) Weighted() bool { return bs.weighted }

// BlockRange returns the dense edge interval [lo, hi) covered by block b.
func (bs *BlockStore) BlockRange(b int) (lo, hi int) {
	lo = b * bs.blockEdges
	hi = lo + int(bs.refs[b].count)
	return lo, hi
}

// EncodedBytes returns the total encoded payload size (edges plus weight
// sidecars) across all blocks, heap- or file-resident.
func (bs *BlockStore) EncodedBytes() int64 {
	var n int64
	for i := range bs.refs {
		r := &bs.refs[i]
		if r.enc != nil {
			n += int64(len(r.enc)) + int64(len(r.wenc))
		} else {
			n += int64(r.encLen) + int64(r.wencLen)
		}
	}
	return n
}

// HeapBytes returns the heap-resident payload bytes: what the store
// actually costs in RAM, excluding the decode cache. File-backed blocks
// contribute nothing.
func (bs *BlockStore) HeapBytes() int64 {
	var n int64
	for i := range bs.refs {
		r := &bs.refs[i]
		n += int64(len(r.enc)) + int64(len(r.wenc))
	}
	n += int64(len(bs.refs)) * 48
	return n
}

// BlockPayload returns block b's encoded edge payload and weight sidecar
// (nil sidecar = implicitly all ones). For file-backed blocks the payload
// is read and CRC-checked into fresh slices the caller owns; heap blocks
// return their retained slices, which callers must not modify. Decode
// paths that drop the payload immediately go through readPayload with
// pooled scratch instead — this entry point is for callers that keep the
// bytes (the snapshot writer re-emitting payloads verbatim).
func (bs *BlockStore) BlockPayload(b int) (enc, wenc []byte, err error) {
	r := &bs.refs[b]
	if r.enc != nil {
		return r.enc, r.wenc, nil
	}
	var sc payloadScratch
	if enc, wenc, err = bs.readPayload(b, &sc); err != nil {
		return nil, nil, err
	}
	return enc, wenc, nil
}

// payloadScratch is a reusable read-buffer pair for file-backed payload
// reads whose bytes are decoded and dropped immediately. Full scans over a
// file-backed store would otherwise allocate one fresh payload buffer per
// block per pass — O(encoded bytes) of garbage for every assignment,
// degree, or fingerprint pass.
type payloadScratch struct{ enc, wenc []byte }

var payloadScratchPool = sync.Pool{New: func() any {
	mScratchAllocs.Inc()
	return new(payloadScratch)
}}

// readPayload returns block b's encoded payloads, reading file-backed
// blocks into sc's buffers (grown as needed) and CRC-checking them. Heap
// blocks return their retained slices, untouched by sc. The results alias
// sc and are valid only until its next use.
func (bs *BlockStore) readPayload(b int, sc *payloadScratch) (enc, wenc []byte, err error) {
	r := &bs.refs[b]
	if r.enc != nil {
		return r.enc, r.wenc, nil
	}
	if cap(sc.enc) < int(r.encLen) {
		sc.enc = make([]byte, r.encLen)
	}
	enc = sc.enc[:r.encLen]
	if _, err := bs.src.ReadAt(enc, r.off); err != nil {
		return nil, nil, fmt.Errorf("graph: block %d: read edges: %w", b, err)
	}
	if c := crc32.ChecksumIEEE(enc); c != r.crc {
		return nil, nil, fmt.Errorf("graph: block %d: edge payload CRC mismatch (%08x != %08x)", b, c, r.crc)
	}
	if r.wencLen > 0 {
		if cap(sc.wenc) < int(r.wencLen) {
			sc.wenc = make([]byte, r.wencLen)
		}
		wenc = sc.wenc[:r.wencLen]
		if _, err := bs.src.ReadAt(wenc, r.woff); err != nil {
			return nil, nil, fmt.Errorf("graph: block %d: read weights: %w", b, err)
		}
		if c := crc32.ChecksumIEEE(wenc); c != r.wcrc {
			return nil, nil, fmt.Errorf("graph: block %d: weight sidecar CRC mismatch (%08x != %08x)", b, c, r.wcrc)
		}
	}
	return enc, wenc, nil
}

// onesSlice returns the store's shared all-ones weight slice, sized to
// cover any block. Callers must treat it as read-only.
func (bs *BlockStore) onesSlice(n int) []float64 {
	bs.mu.Lock()
	if bs.ones == nil {
		ones := make([]float64, bs.blockEdges)
		for i := range ones {
			ones[i] = 1
		}
		bs.ones = ones
	}
	s := bs.ones[:n]
	bs.mu.Unlock()
	return s
}

// DecodeBlockInto decodes block b into the provided scratch slices (grown
// as needed; pass nil to allocate fresh) and returns the decoded edges and
// weights. The weights result is nil on an unweighted store, and may be a
// shared read-only all-ones slice when the block has no explicit sidecar —
// callers must not write into either result. Safe for concurrent use; the
// hot parallel consumers (the partitioned-graph scatter pass) decode into
// per-worker scratch through here and never touch the LRU.
func (bs *BlockStore) DecodeBlockInto(b int, edges []Edge, weights []float64) ([]Edge, []float64, error) {
	sc := getPayloadScratch()
	defer payloadScratchPool.Put(sc)
	enc, wenc, err := bs.readPayload(b, sc)
	if err != nil {
		return nil, nil, err
	}
	r := &bs.refs[b]
	es, err := decodeEdgesInto(enc, edges)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: block %d: %w", b, err)
	}
	if len(es) != int(r.count) {
		return nil, nil, fmt.Errorf("graph: block %d decodes to %d edges, index says %d", b, len(es), r.count)
	}
	if !bs.weighted {
		return es, nil, nil
	}
	if wenc == nil {
		return es, bs.onesSlice(len(es)), nil
	}
	ws, err := decodeWeightSidecarInto(wenc, weights)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: block %d: %w", b, err)
	}
	if len(ws) != len(es) {
		return nil, nil, fmt.Errorf("graph: block %d has %d weights for %d edges", b, len(ws), len(es))
	}
	return es, ws, nil
}

// DecodeBlockEdges decodes just block b's edges into the provided scratch
// (grown as needed; nil allocates fresh), skipping the weight sidecar
// entirely — for parallel consumers that need topology only (the
// partitioned-graph scatter pass decodes blocks into per-worker scratch
// through here). Safe for concurrent use.
func (bs *BlockStore) DecodeBlockEdges(b int, edges []Edge) ([]Edge, error) {
	r := &bs.refs[b]
	enc := r.enc
	if enc == nil {
		sc := getPayloadScratch()
		defer payloadScratchPool.Put(sc)
		if cap(sc.enc) < int(r.encLen) {
			sc.enc = make([]byte, r.encLen)
		}
		enc = sc.enc[:r.encLen]
		if _, err := bs.src.ReadAt(enc, r.off); err != nil {
			return nil, fmt.Errorf("graph: block %d: read edges: %w", b, err)
		}
		if c := crc32.ChecksumIEEE(enc); c != r.crc {
			return nil, fmt.Errorf("graph: block %d: edge payload CRC mismatch (%08x != %08x)", b, c, r.crc)
		}
	}
	es, err := decodeEdgesInto(enc, edges)
	if err != nil {
		return nil, fmt.Errorf("graph: block %d: %w", b, err)
	}
	if len(es) != int(r.count) {
		return nil, fmt.Errorf("graph: block %d decodes to %d edges, index says %d", b, len(es), r.count)
	}
	return es, nil
}

// block returns block b via the LRU cache, decoding on miss. Decoded
// blocks are immutable, so a cached block stays valid for readers that
// obtained it even after eviction.
func (bs *BlockStore) block(b int) (*decodedBlock, error) {
	bs.mu.Lock()
	if d, ok := bs.cache[b]; ok {
		for i, o := range bs.order {
			if o == b {
				copy(bs.order[i:], bs.order[i+1:])
				bs.order[len(bs.order)-1] = b
				break
			}
		}
		bs.mu.Unlock()
		mBlockCacheHits.Inc()
		return d, nil
	}
	bs.mu.Unlock()
	mBlockCacheMisses.Inc()

	es, ws, err := bs.DecodeBlockInto(b, nil, nil)
	if err != nil {
		return nil, err
	}
	d := &decodedBlock{edges: es, weights: ws}

	bs.mu.Lock()
	if prev, ok := bs.cache[b]; ok {
		// Lost the race to another decoder; keep its entry.
		bs.mu.Unlock()
		return prev, nil
	}
	if bs.cache == nil {
		bs.cache = make(map[int]*decodedBlock, blockCacheCap)
	}
	bs.cache[b] = d
	bs.order = append(bs.order, b)
	if len(bs.order) > blockCacheCap {
		evict := bs.order[0]
		bs.order = bs.order[1:]
		delete(bs.cache, evict)
	}
	bs.mu.Unlock()
	return d, nil
}

// EdgeAt returns the edge at dense position i, decoding its block on
// demand through the LRU cache.
func (bs *BlockStore) EdgeAt(i int) (Edge, error) {
	b := i / bs.blockEdges
	d, err := bs.block(b)
	if err != nil {
		return Edge{}, err
	}
	return d.edges[i-b*bs.blockEdges], nil
}

// WeightAt returns the weight of the edge at dense position i (1 on an
// unweighted store).
func (bs *BlockStore) WeightAt(i int) (float64, error) {
	if !bs.weighted {
		return 1, nil
	}
	b := i / bs.blockEdges
	d, err := bs.block(b)
	if err != nil {
		return 0, err
	}
	return d.weights[i-b*bs.blockEdges], nil
}

// blockScratch is a pooled decode buffer pair for full scans.
type blockScratch struct {
	edges    []Edge
	weights  []float64
	src, dst []int32 // endpoint indices of edges (ForEachEndpointBlock)
}

var blockScratchPool = sync.Pool{New: func() any { return &blockScratch{} }}

// forEach streams every block through fn in dense order: fn(start, edges,
// weights) where start is the dense position of edges[0] and weights is
// nil on an unweighted store. The slices are pooled scratch, valid only
// during the callback; fn must not retain or modify them. A non-nil error
// from fn stops the scan and is returned.
func (bs *BlockStore) forEach(fn func(start int, edges []Edge, weights []float64) error) error {
	sc := blockScratchPool.Get().(*blockScratch)
	defer blockScratchPool.Put(sc)
	start := 0
	for b := range bs.refs {
		es, ws, err := bs.DecodeBlockInto(b, sc.edges, sc.weights)
		if err != nil {
			return err
		}
		sc.edges = es[:0]
		if ws != nil && !bs.isSharedOnes(ws) {
			// Adopt (possibly regrown) sidecar decode buffers as scratch;
			// the shared all-ones slice must never become scratch.
			sc.weights = ws[:0]
		}
		if err := fn(start, es, ws); err != nil {
			return err
		}
		start += len(es)
	}
	return nil
}

// isSharedOnes reports whether ws is the store's shared all-ones slice.
func (bs *BlockStore) isSharedOnes(ws []float64) bool {
	bs.mu.Lock()
	o := bs.ones
	bs.mu.Unlock()
	return o != nil && len(ws) > 0 && &ws[0] == &o[0]
}

// extend returns a new store holding this store's edges followed by
// suffix. Sealed full blocks are shared with the parent; only a partial
// tail block is re-encoded merged with the suffix. weighted is the child's
// weightedness (a store can be promoted unweighted → weighted, never
// demoted); sufWeights may be nil even on a weighted child, meaning the
// suffix weighs 1 per edge. The suffix slices are copied, not retained.
func (bs *BlockStore) extend(suffix []Edge, sufWeights []float64, weighted bool) (*BlockStore, error) {
	full := len(bs.refs)
	var tailEdges []Edge
	var tailW []float64
	if full > 0 && int(bs.refs[full-1].count) < bs.blockEdges {
		full--
		es, ws, err := bs.DecodeBlockInto(full, nil, nil)
		if err != nil {
			return nil, err
		}
		tailEdges, tailW = es, ws
	}
	bb := &BlockBuilder{blockEdges: bs.blockEdges, weighted: weighted, src: bs.src}
	bb.refs = append(bb.refs, bs.refs[:full]...)
	for i := 0; i < full; i++ {
		bb.numEdges += int(bs.refs[i].count)
	}
	bb.Append(tailEdges, tailW)
	bb.Append(suffix, sufWeights)
	return bb.Finish(), nil
}

// BlockBuilder accumulates edges into a BlockStore, sealing a block every
// blockEdges edges so peak heap during construction is one block of
// pending edges plus the encoded payloads. Append copies its inputs; the
// builder is single-goroutine.
type BlockBuilder struct {
	blockEdges int
	numEdges   int
	weighted   bool
	refs       []blockRef
	src        io.ReaderAt // carried through extend; nil for fresh builds
	buf        []Edge
	wbuf       []float64
	encScratch []byte // reused across seals; retained payloads are exact-size copies
}

// NewBlockBuilder returns a builder with the given block granularity
// (0 selects DefaultBlockEdges). The granularity is rounded up to a
// multiple of 64 so the owning graph's tombstone bitset words never
// straddle a block boundary.
func NewBlockBuilder(blockEdges int) *BlockBuilder {
	if blockEdges <= 0 {
		blockEdges = DefaultBlockEdges
	}
	blockEdges = (blockEdges + 63) &^ 63
	return &BlockBuilder{blockEdges: blockEdges}
}

// Append adds a batch of edges with optional aligned weights (nil = each
// edge weighs 1). The first non-nil weights promotes the whole store to
// weighted: blocks sealed before the promotion keep no sidecar and decode
// as implicit ones, matching the dense tier's weight-promotion semantics.
func (bb *BlockBuilder) Append(edges []Edge, weights []float64) {
	if len(edges) == 0 {
		return
	}
	if weights != nil && !bb.weighted {
		bb.weighted = true
		if len(bb.buf) > 0 && bb.wbuf == nil {
			bb.wbuf = make([]float64, len(bb.buf), bb.blockEdges)
			for i := range bb.wbuf {
				bb.wbuf[i] = 1
			}
		}
	}
	for len(edges) > 0 {
		room := bb.blockEdges - len(bb.buf)
		n := len(edges)
		if n > room {
			n = room
		}
		bb.buf = append(bb.buf, edges[:n]...)
		if bb.weighted && (bb.wbuf != nil || weights != nil) {
			if bb.wbuf == nil {
				bb.wbuf = make([]float64, 0, bb.blockEdges)
			}
			if weights != nil {
				bb.wbuf = append(bb.wbuf, weights[:n]...)
				weights = weights[n:]
			} else {
				for i := 0; i < n; i++ {
					bb.wbuf = append(bb.wbuf, 1)
				}
			}
		}
		edges = edges[n:]
		if len(bb.buf) == bb.blockEdges {
			bb.seal()
		}
	}
}

// seal encodes the pending buffer as one block. The varint encoder runs
// over a scratch buffer reused across seals; only an exact-size copy is
// retained, so a long build allocates the payload bytes it keeps and
// nothing more (no append-growth slack, no per-block encoder garbage).
func (bb *BlockBuilder) seal() {
	if len(bb.buf) == 0 {
		return
	}
	bb.encScratch = EncodeEdges(bb.encScratch[:0], bb.buf)
	enc := make([]byte, len(bb.encScratch))
	copy(enc, bb.encScratch)
	var wenc []byte
	if bb.weighted && bb.wbuf != nil && !allOnes(bb.wbuf) {
		wenc = encodeWeightSidecar(bb.wbuf)
	}
	bb.refs = append(bb.refs, blockRef{count: int32(len(bb.buf)), enc: enc, wenc: wenc})
	bb.numEdges += len(bb.buf)
	bb.buf = bb.buf[:0]
	if bb.wbuf != nil {
		bb.wbuf = bb.wbuf[:0]
	}
}

// Finish seals any pending edges and returns the immutable store. The
// builder must not be used afterwards.
func (bb *BlockBuilder) Finish() *BlockStore {
	bb.seal()
	return &BlockStore{
		blockEdges: bb.blockEdges,
		numEdges:   bb.numEdges,
		weighted:   bb.weighted,
		refs:       bb.refs,
		src:        bb.src,
	}
}

// BlockIndexEntry locates one block inside a backing file, as recorded by
// the on-disk block-graph format: byte extents and CRC-32 (IEEE) checksums
// for the encoded edges and the optional weight sidecar (WLen 0 = the
// block's weights are implicitly all ones).
type BlockIndexEntry struct {
	Count uint32
	Off   uint64
	Len   uint32
	CRC   uint32
	WOff  uint64
	WLen  uint32
	WCRC  uint32
}

// OpenBlocks assembles a file-backed store over src from a decoded block
// index. No edge payload is read here — blocks decode lazily, with their
// CRCs checked on first touch — so opening a store is O(blocks) regardless
// of edge count. The index geometry is validated: every block but the last
// must hold exactly blockEdges edges (a multiple of 64) and extents must
// be non-empty.
func OpenBlocks(src io.ReaderAt, blockEdges int, weighted bool, index []BlockIndexEntry) (*BlockStore, error) {
	if blockEdges <= 0 || blockEdges%64 != 0 {
		return nil, fmt.Errorf("graph: block size %d is not a positive multiple of 64", blockEdges)
	}
	bs := &BlockStore{blockEdges: blockEdges, weighted: weighted, src: src}
	for i, ent := range index {
		if ent.Count == 0 || int(ent.Count) > blockEdges {
			return nil, fmt.Errorf("graph: block %d holds %d edges for block size %d", i, ent.Count, blockEdges)
		}
		if i < len(index)-1 && int(ent.Count) != blockEdges {
			return nil, fmt.Errorf("graph: non-final block %d holds %d edges, want %d", i, ent.Count, blockEdges)
		}
		if ent.Len == 0 {
			return nil, fmt.Errorf("graph: block %d has empty edge payload", i)
		}
		if !weighted && ent.WLen != 0 {
			return nil, fmt.Errorf("graph: unweighted store has weight sidecar at block %d", i)
		}
		if ent.WLen != 0 && int(ent.WLen) != int(ent.Count)*8 {
			return nil, fmt.Errorf("graph: block %d weight sidecar is %d bytes for %d edges", i, ent.WLen, ent.Count)
		}
		bs.refs = append(bs.refs, blockRef{
			count:   int32(ent.Count),
			off:     int64(ent.Off),
			encLen:  ent.Len,
			crc:     ent.CRC,
			woff:    int64(ent.WOff),
			wencLen: ent.WLen,
			wcrc:    ent.WCRC,
		})
		bs.numEdges += int(ent.Count)
	}
	return bs, nil
}

// allOnes reports whether every weight is exactly 1 (such a sidecar is
// omitted: implicit ones decode bit-identically).
func allOnes(w []float64) bool {
	for _, x := range w {
		if x != 1 {
			return false
		}
	}
	return true
}

// encodeWeightSidecar packs weights as raw little-endian float64s.
func encodeWeightSidecar(w []float64) []byte {
	out := make([]byte, len(w)*8)
	for i, x := range w {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

// decodeWeightSidecarInto unpacks a weight sidecar into dst (grown as
// needed).
func decodeWeightSidecarInto(data []byte, dst []float64) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("graph: weight sidecar length %d is not a multiple of 8", len(data))
	}
	n := len(data) / 8
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return dst, nil
}
