package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"cutfit/internal/graph"
)

// ---- block-graph codec -----------------------------------------------------
//
// A KindBlockGraph file is a standard snap container followed by a raw
// payload region:
//
//	container prefix:
//	  meta section        vertex/edge counts, fingerprint, block geometry,
//	                      a weighted flag (always 0), payload-region length
//	  vertex list section delta uvarints (same encoding as KindGraph)
//	  block index section one fixed 36-byte entry per block: edge count,
//	                      then byte extent + CRC-32 (IEEE) for the encoded
//	                      edges, then a weight-sidecar extent that is
//	                      always zero; offsets are relative to the payload
//	                      region start and must chain contiguously
//	  tombstones section  optional, same encoding as KindGraph
//	payload region:
//	  per block, in order: delta-varint edge payload — exactly the bytes
//	  the index describes, ending at end-of-file
//
// Edges have no weight. The weighted flag and the sidecar extents are
// format-v1 fields the writer sets to zero; a file with a non-zero one is
// refused.
//
// Unlike every other kind, the payload region lives OUTSIDE the container
// so OpenBlockGraph can serve blocks straight from the file through
// graph.OpenBlocks without a dense round-trip: only the prefix is read at
// open, blocks decode lazily with their CRCs checked on first touch. The
// open-time fingerprint validation below streams the store once (O(1)
// memory), which doubles as an eager integrity check of every block.

// blockIndexEntryBytes is the fixed on-disk size of one block index entry:
// count u32, off u64, len u32, crc u32, then the zero sidecar extent:
// woff u64, wlen u32, wcrc u32.
const blockIndexEntryBytes = 4 + 8 + 4 + 4 + 8 + 4 + 4

// EncodeBlockGraphPrefix builds the container prefix for g's block tier
// and returns it along with the block payloads to append after it, in
// order. Most callers want WriteBlockGraph or SaveBlockGraph instead.
func EncodeBlockGraphPrefix(g *graph.Graph) (prefix []byte, payloads [][]byte, err error) {
	bs := g.Blocks()
	if bs == nil {
		return nil, nil, fmt.Errorf("snap: graph is not block-backed (use WriteGraph for dense graphs)")
	}
	nb := bs.NumBlocks()
	index := make([]byte, 0, nb*blockIndexEntryBytes)
	payloads = make([][]byte, 0, nb)
	var off uint64
	for b := 0; b < nb; b++ {
		enc, err := bs.BlockPayload(b)
		if err != nil {
			return nil, nil, err
		}
		lo, hi := bs.BlockRange(b)
		index = binary.LittleEndian.AppendUint32(index, uint32(hi-lo))
		index = binary.LittleEndian.AppendUint64(index, off)
		index = binary.LittleEndian.AppendUint32(index, uint32(len(enc)))
		index = binary.LittleEndian.AppendUint32(index, crc32.ChecksumIEEE(enc))
		index = append(index, make([]byte, 8+4+4)...) // no weight sidecar
		payloads = append(payloads, enc)
		off += uint64(len(enc))
	}

	verts := g.Vertices()
	var meta []byte
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(verts)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(g.NumEdges()))
	meta = binary.LittleEndian.AppendUint64(meta, g.Fingerprint())
	meta = binary.LittleEndian.AppendUint32(meta, uint32(bs.BlockEdges()))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(nb))
	meta = binary.LittleEndian.AppendUint32(meta, 0) // weighted flag
	meta = binary.LittleEndian.AppendUint64(meta, off)

	b := NewBuilder(KindBlockGraph)
	b.Section(secMeta, meta)
	b.Section(secBlockVerts, encodeVertexList(verts))
	b.Section(secBlockIndex, index)
	if g.NumDeadEdges() > 0 {
		b.Section(secBlockTombstones, encodeTombstones(g))
	}
	return b.Bytes(), payloads, nil
}

// WriteBlockGraph writes g's block tier to w as a KindBlockGraph file.
// For a heap-backed store the block payloads are written as-is (no decode,
// no dense materialization); a file-backed store is copied block by block,
// re-verifying each CRC.
func WriteBlockGraph(w io.Writer, g *graph.Graph) error {
	prefix, payloads, err := EncodeBlockGraphPrefix(g)
	if err != nil {
		return err
	}
	if _, err := w.Write(prefix); err != nil {
		return err
	}
	for _, p := range payloads {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// SaveBlockGraph writes g's block tier to path atomically
// (WriteFileAtomic).
func SaveBlockGraph(path string, g *graph.Graph) error {
	if err := WriteFileAtomic(path, func(w io.Writer) error { return WriteBlockGraph(w, g) }); err != nil {
		return fmt.Errorf("snap: saving block graph: %w", err)
	}
	return nil
}

// OpenBlockGraph opens a block-graph file and returns a graph that serves
// its blocks straight from the file. The returned closer owns the file
// handle: close it only when the graph and every generation derived from
// it are no longer in use.
func OpenBlockGraph(path string) (*graph.Graph, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("snap: opening block graph: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("snap: opening block graph: %w", err)
	}
	g, err := OpenBlockGraphAt(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return g, f, nil
}

// OpenBlockGraphAt assembles a block-backed graph over an already-open
// block-graph image of the given size. Only the container prefix is read
// eagerly; src must stay valid for the life of the graph. The recorded
// fingerprint is re-verified with one streaming pass over the blocks, so
// a corrupt payload region is rejected here rather than at first use.
func OpenBlockGraphAt(src io.ReaderAt, size int64) (*graph.Graph, error) {
	hdr := make([]byte, headerFixed)
	if _, err := io.ReadFull(io.NewSectionReader(src, 0, size), hdr); err != nil {
		return nil, fmt.Errorf("snap: reading block-graph header: %w", err)
	}
	if string(hdr[:8]) != string(magic[:]) {
		return nil, fmt.Errorf("snap: bad magic %x", hdr[:8])
	}
	count := binary.LittleEndian.Uint32(hdr[16:])
	if count > maxSections {
		return nil, fmt.Errorf("snap: %d sections exceeds limit %d", count, maxSections)
	}
	tableLen := int(count)*tableEntry + 4
	table := make([]byte, tableLen)
	if _, err := io.ReadFull(io.NewSectionReader(src, headerFixed, size-headerFixed), table); err != nil {
		return nil, fmt.Errorf("snap: reading block-graph section table: %w", err)
	}
	prefixLen := uint64(headerFixed) + uint64(tableLen)
	for i := 0; i < int(count); i++ {
		length := binary.LittleEndian.Uint64(table[i*tableEntry+4:])
		if length > uint64(size) || prefixLen+length > uint64(size) {
			return nil, fmt.Errorf("snap: container prefix exceeds file size %d", size)
		}
		prefixLen += length
	}
	prefix := make([]byte, prefixLen)
	if _, err := io.ReadFull(io.NewSectionReader(src, 0, size), prefix); err != nil {
		return nil, fmt.Errorf("snap: reading block-graph container prefix: %w", err)
	}
	c, err := Decode(prefix)
	if err != nil {
		return nil, err
	}
	return decodeBlockGraph(c, src, int64(prefixLen), size)
}

func decodeBlockGraph(c *Container, src io.ReaderAt, base, size int64) (*graph.Graph, error) {
	if err := expectKind(c, KindBlockGraph); err != nil {
		return nil, err
	}
	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return nil, err
	}
	mr := &fieldReader{b: msec}
	numVerts := mr.u64()
	numEdges := mr.u64()
	fp := mr.u64()
	blockEdges := mr.u32()
	numBlocks := mr.u32()
	wflag := mr.u32()
	payloadLen := mr.u64()
	if err := mr.finish(); err != nil {
		return nil, err
	}
	if wflag != 0 {
		return nil, fmt.Errorf("snap: block graph has weighted flag %d: edge weights are not supported", wflag)
	}
	if numEdges > math.MaxInt64/2 {
		return nil, fmt.Errorf("snap: implausible edge count %d", numEdges)
	}

	vsec, err := section(c, secBlockVerts, "vertex list")
	if err != nil {
		return nil, err
	}
	verts, err := decodeVertexList(vsec, numVerts)
	if err != nil {
		return nil, err
	}

	isec, err := section(c, secBlockIndex, "block index")
	if err != nil {
		return nil, err
	}
	if uint64(len(isec)) != uint64(numBlocks)*blockIndexEntryBytes {
		return nil, fmt.Errorf("snap: block index is %d bytes for %d blocks, want %d",
			len(isec), numBlocks, uint64(numBlocks)*blockIndexEntryBytes)
	}
	index := make([]graph.BlockIndexEntry, numBlocks)
	var cur uint64
	for i := range index {
		e := isec[i*blockIndexEntryBytes:]
		ent := graph.BlockIndexEntry{
			Count: binary.LittleEndian.Uint32(e),
			Off:   binary.LittleEndian.Uint64(e[4:]),
			Len:   binary.LittleEndian.Uint32(e[12:]),
			CRC:   binary.LittleEndian.Uint32(e[16:]),
		}
		if wlen := binary.LittleEndian.Uint32(e[28:]); wlen != 0 {
			return nil, fmt.Errorf("snap: block %d has a %d-byte weight sidecar: edge weights are not supported", i, wlen)
		}
		if binary.LittleEndian.Uint64(e[20:]) != 0 || binary.LittleEndian.Uint32(e[32:]) != 0 {
			return nil, fmt.Errorf("snap: block %d has weight extent fields but no sidecar", i)
		}
		// Payloads must chain contiguously through the payload region —
		// the offsets are fully determined by the lengths, keeping the
		// encoding canonical and leaving no unscanned gaps in the file.
		if ent.Off != cur {
			return nil, fmt.Errorf("snap: block %d edge payload at offset %d, want %d", i, ent.Off, cur)
		}
		cur += uint64(ent.Len)
		ent.Off += uint64(base)
		index[i] = ent
	}
	if cur != payloadLen {
		return nil, fmt.Errorf("snap: block extents cover %d payload bytes, meta says %d", cur, payloadLen)
	}
	if uint64(base)+payloadLen != uint64(size) {
		return nil, fmt.Errorf("snap: file holds %d payload bytes, meta says %d", uint64(size)-uint64(base), payloadLen)
	}

	bs, err := graph.OpenBlocks(src, int(blockEdges), index)
	if err != nil {
		return nil, err
	}
	if bs.NumEdges() != int(numEdges) {
		return nil, fmt.Errorf("snap: block index holds %d edges, meta says %d", bs.NumEdges(), numEdges)
	}
	var (
		dead    []uint64
		numDead int
	)
	if tsec, ok := c.Section(secBlockTombstones); ok {
		if dead, numDead, err = decodeTombstones(tsec, int(numEdges)); err != nil {
			return nil, err
		}
	}
	g, err := graph.FromBlocksAndVertices(bs, verts, dead, numDead)
	if err != nil {
		return nil, err
	}
	// The fingerprint is canonical over edges and the tombstone set; recomputing it streams every block once through pooled scratch,
	// CRC-checking the whole payload region without materializing it.
	got, err := g.CheckedFingerprint()
	if err != nil {
		return nil, err
	}
	if got != fp {
		return nil, fmt.Errorf("snap: block graph fingerprint mismatch: decoded %016x, recorded %016x", got, fp)
	}
	return g, nil
}
