package graph

import (
	"fmt"
	"hash/crc32"
	"io"
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
// (enc nil, off/encLen/crc locate and check the payload).
type blockRef struct {
	count int32
	enc   []byte

	off    int64
	encLen uint32
	crc    uint32
}

// BlockStore is the memory-lean edge tier: edges in fixed-size blocks,
// each encoded with the same delta-varint codec the snapshot format uses.
// Blocks decode on demand, one at
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
	refs       []blockRef
	src        io.ReaderAt // backing file for refs with enc == nil
}

// NumEdges returns the total number of edges across all blocks.
func (bs *BlockStore) NumEdges() int { return bs.numEdges }

// NumBlocks returns the number of blocks.
func (bs *BlockStore) NumBlocks() int { return len(bs.refs) }

// BlockEdges returns the block granularity (every block but the last holds
// exactly this many edges).
func (bs *BlockStore) BlockEdges() int { return bs.blockEdges }

// BlockRange returns the dense edge interval [lo, hi) covered by block b.
func (bs *BlockStore) BlockRange(b int) (lo, hi int) {
	lo = b * bs.blockEdges
	hi = lo + int(bs.refs[b].count)
	return lo, hi
}

// EncodedBytes returns the total encoded payload size across all blocks,
// heap- or file-resident.
func (bs *BlockStore) EncodedBytes() int64 {
	var n int64
	for i := range bs.refs {
		r := &bs.refs[i]
		if r.enc != nil {
			n += int64(len(r.enc))
		} else {
			n += int64(r.encLen)
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
		n += int64(len(r.enc))
	}
	n += int64(len(bs.refs)) * 48
	return n
}

// BlockPayload returns block b's encoded edge payload. For file-backed
// blocks the payload is read and CRC-checked into a fresh slice the caller
// owns; heap blocks return their retained slice, which callers must not
// modify. This entry point is for callers that keep the bytes (the
// snapshot writer re-emitting payloads verbatim); everything that decodes
// goes through decode.
func (bs *BlockStore) BlockPayload(b int) ([]byte, error) {
	r := &bs.refs[b]
	if r.enc != nil {
		return r.enc, nil
	}
	return bs.read(b, nil, r)
}

// read reads block b's payload from the backing file into buf (grown as
// needed) and checks it against its CRC. The result reuses buf's capacity.
func (bs *BlockStore) read(b int, buf []byte, r *blockRef) ([]byte, error) {
	if cap(buf) < int(r.encLen) {
		buf = make([]byte, r.encLen)
	}
	buf = buf[:r.encLen]
	if _, err := bs.src.ReadAt(buf, r.off); err != nil {
		return nil, fmt.Errorf("graph: block %d: read edge payload: %w", b, err)
	}
	if c := crc32.ChecksumIEEE(buf); c != r.crc {
		return nil, fmt.Errorf("graph: block %d: edge payload CRC mismatch (%08x != %08x)", b, c, r.crc)
	}
	return buf, nil
}

// blockScratch is the one pooled decode buffer set: the payload read
// buffer of a file-backed block, the decoded edges, and the endpoint
// indices ForEachEndpointBlock resolves them into. Every block read checks
// one out for the length of the call (getScratch).
type blockScratch struct {
	enc      []byte
	edges    []Edge
	src, dst []int32
}

var blockScratchPool = sync.Pool{New: func() any {
	mScratchAllocs.Inc()
	return new(blockScratch)
}}

// decode reads block b into sc and returns its edges. A file-backed
// block's payload is read and CRC-checked. The result aliases sc and is
// valid until sc's next use; callers must not modify it. Every block read
// goes through here; it is safe for concurrent use with distinct scratch.
func (bs *BlockStore) decode(b int, sc *blockScratch) ([]Edge, error) {
	r := &bs.refs[b]
	enc := r.enc
	if enc == nil {
		var err error
		if sc.enc, err = bs.read(b, sc.enc, r); err != nil {
			return nil, err
		}
		enc = sc.enc
	}
	es, err := decodeEdgesInto(enc, sc.edges, nil)
	if err != nil {
		return nil, fmt.Errorf("graph: block %d: %w", b, err)
	}
	sc.edges = es
	if len(es) != int(r.count) {
		return nil, fmt.Errorf("graph: block %d decodes to %d edges, index says %d", b, len(es), r.count)
	}
	return es, nil
}

// forEach streams every block through fn in dense order: fn(start, edges)
// where start is the dense position of edges[0]. The slice is pooled
// scratch, valid only during the callback; fn must not retain or modify
// it. A non-nil error from fn stops the scan and is returned.
func (bs *BlockStore) forEach(fn func(start int, edges []Edge) error) error {
	sc := getScratch()
	defer blockScratchPool.Put(sc)
	start := 0
	for b := range bs.refs {
		es, err := bs.decode(b, sc)
		if err != nil {
			return err
		}
		if err := fn(start, es); err != nil {
			return err
		}
		start += len(es)
	}
	return nil
}

// extend returns a new store holding this store's edges followed by
// suffix. Sealed full blocks are shared with the parent; only a partial
// tail block is re-encoded merged with the suffix. The suffix is copied,
// not retained.
func (bs *BlockStore) extend(suffix []Edge) (*BlockStore, error) {
	full := len(bs.refs)
	var tailEdges []Edge
	if full > 0 && int(bs.refs[full-1].count) < bs.blockEdges {
		full--
		sc := getScratch()
		defer blockScratchPool.Put(sc)
		var err error
		if tailEdges, err = bs.decode(full, sc); err != nil {
			return nil, err
		}
	}
	bb := &BlockBuilder{blockEdges: bs.blockEdges, src: bs.src}
	bb.refs = append(bb.refs, bs.refs[:full]...)
	for i := 0; i < full; i++ {
		bb.numEdges += int(bs.refs[i].count)
	}
	bb.Append(tailEdges)
	bb.Append(suffix)
	return bb.Finish(), nil
}

// BlockBuilder accumulates edges into a BlockStore, sealing a block every
// blockEdges edges so peak heap during construction is one block of
// pending edges plus the encoded payloads. Append copies its inputs; the
// builder is single-goroutine.
type BlockBuilder struct {
	blockEdges int
	numEdges   int
	refs       []blockRef
	src        io.ReaderAt // carried through extend; nil for fresh builds
	buf        []Edge
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

// Append adds a batch of edges.
func (bb *BlockBuilder) Append(edges []Edge) {
	for len(edges) > 0 {
		n := min(len(edges), bb.blockEdges-len(bb.buf))
		bb.buf = append(bb.buf, edges[:n]...)
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
	bb.refs = append(bb.refs, blockRef{count: int32(len(bb.buf)), enc: enc})
	bb.numEdges += len(bb.buf)
	bb.buf = bb.buf[:0]
}

// Finish seals any pending edges and returns the immutable store. The
// builder must not be used afterwards.
func (bb *BlockBuilder) Finish() *BlockStore {
	bb.seal()
	return &BlockStore{
		blockEdges: bb.blockEdges,
		numEdges:   bb.numEdges,
		refs:       bb.refs,
		src:        bb.src,
	}
}

// BlockIndexEntry locates one block inside a backing file, as recorded by
// the on-disk block-graph format: the byte extent and CRC-32 (IEEE)
// checksum of the encoded edges.
type BlockIndexEntry struct {
	Count uint32
	Off   uint64
	Len   uint32
	CRC   uint32
}

// OpenBlocks assembles a file-backed store over src from a decoded block
// index. No edge payload is read here — blocks decode lazily, with their
// CRCs checked on first touch — so opening a store is O(blocks) regardless
// of edge count. The index geometry is validated: every block but the last
// must hold exactly blockEdges edges (a multiple of 64) and extents must
// be non-empty.
func OpenBlocks(src io.ReaderAt, blockEdges int, index []BlockIndexEntry) (*BlockStore, error) {
	if blockEdges <= 0 || blockEdges%64 != 0 {
		return nil, fmt.Errorf("graph: block size %d is not a positive multiple of 64", blockEdges)
	}
	bs := &BlockStore{blockEdges: blockEdges, src: src}
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
		bs.refs = append(bs.refs, blockRef{
			count:  int32(ent.Count),
			off:    int64(ent.Off),
			encLen: ent.Len,
			crc:    ent.CRC,
		})
		bs.numEdges += int(ent.Count)
	}
	return bs, nil
}
