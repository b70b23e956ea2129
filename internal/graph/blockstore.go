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
// with optional per-block weight sidecars. Blocks decode on demand, one at
// a time into pooled scratch (decode), so a store's resident cost is the
// encoded bytes (or nothing at all for a ReaderAt-backed store serving
// blocks straight from a file).
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

	onesOnce sync.Once
	ones     []float64 // shared read-only weights of a block without a sidecar
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
// actually costs in RAM, excluding pooled decode scratch. File-backed
// blocks contribute nothing.
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
// return their retained slices, which callers must not modify. This entry
// point is for callers that keep the bytes (the snapshot writer
// re-emitting payloads verbatim); everything that decodes goes through
// decode.
func (bs *BlockStore) BlockPayload(b int) (enc, wenc []byte, err error) {
	r := &bs.refs[b]
	if r.enc != nil {
		return r.enc, r.wenc, nil
	}
	if enc, err = bs.read(b, "edge payload", nil, r.off, r.encLen, r.crc); err != nil {
		return nil, nil, err
	}
	if r.wencLen > 0 {
		if wenc, err = bs.read(b, "weight sidecar", nil, r.woff, r.wencLen, r.wcrc); err != nil {
			return nil, nil, err
		}
	}
	return enc, wenc, nil
}

// read reads n bytes at off from the backing file into buf (grown as
// needed) and checks them against crc. The result reuses buf's capacity.
func (bs *BlockStore) read(b int, what string, buf []byte, off int64, n, crc uint32) ([]byte, error) {
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := bs.src.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("graph: block %d: read %s: %w", b, what, err)
	}
	if c := crc32.ChecksumIEEE(buf); c != crc {
		return nil, fmt.Errorf("graph: block %d: %s CRC mismatch (%08x != %08x)", b, what, c, crc)
	}
	return buf, nil
}

// blockScratch is the one pooled decode buffer set: the payload read
// buffers of a file-backed block, the decoded edges and weights, and the
// endpoint indices ForEachEndpointBlock resolves them into. Every block
// read checks one out for the length of the call (getScratch).
type blockScratch struct {
	enc, wenc []byte
	edges     []Edge
	weights   []float64
	src, dst  []int32
}

var blockScratchPool = sync.Pool{New: func() any {
	mScratchAllocs.Inc()
	return new(blockScratch)
}}

// decode reads block b into sc and returns its edges and, when withWeights
// is set on a weighted store, its weights — the store's shared all-ones
// slice for a block without a sidecar; nil otherwise. A file-backed
// block's payload is read and CRC-checked, its sidecar only when the
// weights are asked for. The results alias sc (or the shared ones) and are
// valid until sc's next use; callers must not modify them. Every block
// read goes through here; it is safe for concurrent use with distinct
// scratch.
func (bs *BlockStore) decode(b int, sc *blockScratch, withWeights bool) ([]Edge, []float64, error) {
	r := &bs.refs[b]
	enc, wenc := r.enc, r.wenc
	if enc == nil {
		var err error
		if sc.enc, err = bs.read(b, "edge payload", sc.enc, r.off, r.encLen, r.crc); err != nil {
			return nil, nil, err
		}
		enc = sc.enc
	}
	es, err := decodeEdgesInto(enc, sc.edges, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: block %d: %w", b, err)
	}
	sc.edges = es
	if len(es) != int(r.count) {
		return nil, nil, fmt.Errorf("graph: block %d decodes to %d edges, index says %d", b, len(es), r.count)
	}
	if !withWeights || !bs.weighted {
		return es, nil, nil
	}
	if r.enc == nil && r.wencLen > 0 {
		if sc.wenc, err = bs.read(b, "weight sidecar", sc.wenc, r.woff, r.wencLen, r.wcrc); err != nil {
			return nil, nil, err
		}
		wenc = sc.wenc
	}
	if wenc == nil {
		bs.onesOnce.Do(func() {
			bs.ones = make([]float64, bs.blockEdges)
			for i := range bs.ones {
				bs.ones[i] = 1
			}
		})
		return es, bs.ones[:len(es)], nil
	}
	ws, err := decodeWeightSidecarInto(wenc, sc.weights)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: block %d: %w", b, err)
	}
	sc.weights = ws
	if len(ws) != len(es) {
		return nil, nil, fmt.Errorf("graph: block %d has %d weights for %d edges", b, len(ws), len(es))
	}
	return es, ws, nil
}

// forEach streams every block through fn in dense order: fn(start, edges,
// weights) where start is the dense position of edges[0] and weights is
// nil on an unweighted store. The slices are pooled scratch, valid only
// during the callback; fn must not retain or modify them. A non-nil error
// from fn stops the scan and is returned.
func (bs *BlockStore) forEach(fn func(start int, edges []Edge, weights []float64) error) error {
	sc := getScratch()
	defer blockScratchPool.Put(sc)
	start := 0
	for b := range bs.refs {
		es, ws, err := bs.decode(b, sc, true)
		if err != nil {
			return err
		}
		if err := fn(start, es, ws); err != nil {
			return err
		}
		start += len(es)
	}
	return nil
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
		sc := getScratch()
		defer blockScratchPool.Put(sc)
		var err error
		if tailEdges, tailW, err = bs.decode(full, sc, true); err != nil {
			return nil, err
		}
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
