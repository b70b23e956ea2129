package graph

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"

	"cutfit/internal/par"
)

// WriteEdgeList writes the graph in SNAP-style text format: one "src dst"
// pair per live edge, tab separated, with a leading comment header.
// Tombstoned edges are not written (the text format has no liveness
// column).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "# cutfit edge list: %d vertices, %d edges\n", g.NumVertices(), g.NumLiveEdges()); err != nil {
		return err
	}
	if err := g.ForEachEdgeBlock(func(start int, edges []Edge) error {
		for i, e := range edges {
			if g.numDead != 0 && !g.EdgeAlive(start+i) {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d\t%d\n", e.Src, e.Dst); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return bw.Flush()
}

// streamBatchEdges is the batch granularity of StreamEdgeList: large
// enough to amortize the callback, small enough that a consumer's working
// set stays a few hundred KiB regardless of input size.
const streamBatchEdges = 8192

// The text parser cuts its input into chunks of whole lines, about
// ingestChunkBytes each, and parses them concurrently. A line of
// maxLineBytes or more (its newline not counted) is rejected: the limit of
// the bufio.Scanner the parser was first built on, whose error it still
// returns.
const (
	ingestChunkBytes = 128 << 10
	maxLineBytes     = 1 << 20
)

// StreamEdgeList parses a SNAP-style text edge list (the ReadEdgeList
// format) and delivers the edges to fn in batches instead of materializing
// them. The batch slice is reused between calls — fn must not retain it.
//
// The text is parsed a chunk of whole lines at a time, on up to
// par.DefaultParallelism() goroutines that run at most twice that many
// chunks ahead of fn; fn itself is called from the caller's goroutine, in
// input order, and sees what a line-by-line parser would have shown it. The
// two vertex IDs are scanned straight from the chunk, so a line costs no
// allocation. The accepted language is that of strings.Fields +
// strconv.ParseInt(·, 10, 64), and a rejected field goes through strconv for
// its error.
func StreamEdgeList(r io.Reader, fn func(edges []Edge) error) error {
	return streamEdgeList(r, ingestChunkBytes, par.DefaultParallelism(), fn)
}

func streamEdgeList(r io.Reader, chunkBytes, workers int, fn func(edges []Edge) error) error {
	b := edgeBatcher{fn: fn, edges: make([]Edge, 0, streamBatchEdges)}
	if err := streamSlabs(r, chunkBytes, workers, b.add); err != nil {
		return err
	}
	return b.flush()
}

// edgeBatcher cuts the parsed slabs, taken in input order, into
// StreamEdgeList's batches: streamBatchEdges edges each but the last.
type edgeBatcher struct {
	fn    func(edges []Edge) error
	edges []Edge
}

func (b *edgeBatcher) add(s *edgeSlab) error {
	for i := 0; i < len(s.edges); {
		n := min(streamBatchEdges-len(b.edges), len(s.edges)-i)
		b.edges = append(b.edges, s.edges[i:i+n]...)
		i += n
		if len(b.edges) == streamBatchEdges {
			if err := b.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *edgeBatcher) flush() error {
	if len(b.edges) == 0 {
		return nil
	}
	err := b.fn(b.edges)
	b.edges = b.edges[:0]
	return err
}

// edgeSlab is one chunk of the text and what its lines parse to.
type edgeSlab struct {
	text []byte // whole lines; only the input's last may lack its '\n'
	line int    // lines of input in front of text
	rows int    // lines in text, an upper bound on its edges

	// edges holds the edges of the lines up to the first one rejected, err
	// that line's error.
	edges []Edge
	err   error

	parsed chan struct{} // receives once per parse
}

// streamSlabs cuts r into chunks of whole lines, parses them on up to
// workers goroutines and hands the slabs to deliver in input order, from the
// calling goroutine. At most 2 × workers chunks are read beyond the one being
// delivered; with one worker, or when a chunk is all there is to parse, the
// caller parses it itself and no goroutine is started. Slabs are reused once
// delivered: deliver keeps a slab's edges beyond its return by setting the
// field to nil. It stops at the first error, in input order: a
// rejected line (after its slab, which holds the edges in front of it, has
// been delivered), deliver's own, or — after everything read has been
// delivered — a read error or an over-long line.
func streamSlabs(r io.Reader, chunkBytes, workers int, deliver func(*edgeSlab) error) error {
	src := lineChunker{r: r, size: chunkBytes}
	lookahead := 0
	if workers > 1 {
		lookahead = 2 * workers
	}
	var (
		work    chan *edgeSlab
		started int
		wg      sync.WaitGroup
		pending []*edgeSlab // read and not yet delivered, in input order
		free    []*edgeSlab
	)
	defer func() {
		if work != nil {
			close(work)
			wg.Wait()
		}
	}()
	deliverFirst := func() error {
		s := pending[0]
		pending = pending[:copy(pending, pending[1:])]
		<-s.parsed
		if err := deliver(s); err != nil {
			return err
		}
		free = append(free, s)
		return s.err
	}
	for {
		var s *edgeSlab
		if n := len(free); n > 0 {
			s, free = free[n-1], free[:n-1]
		} else {
			s = &edgeSlab{parsed: make(chan struct{}, 1)}
		}
		if !src.next(s) {
			break
		}
		pending = append(pending, s)
		if lookahead == 0 || (src.err != nil && len(pending) == 1) {
			s.parse()
		} else {
			if work == nil {
				work = make(chan *edgeSlab, lookahead+1) // every pending slab fits: a send never blocks
			}
			if started < workers {
				started++
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s := range work {
						s.parse()
					}
				}()
			}
			work <- s
		}
		if len(pending) > lookahead {
			if err := deliverFirst(); err != nil {
				return err
			}
		}
	}
	for len(pending) > 0 {
		if err := deliverFirst(); err != nil {
			return err
		}
	}
	if src.err != io.EOF {
		return fmt.Errorf("graph: scanning edge list: %w", src.err)
	}
	return nil
}

// lineChunker cuts a reader's bytes into chunks of whole lines.
type lineChunker struct {
	r     io.Reader
	size  int    // a chunk is read up to this many bytes and cut at its last '\n'
	tail  []byte // the unfinished line behind the previous chunk
	lines int    // lines handed out
	err   error  // why reading stopped; io.EOF at the end of the input
}

// next reads the next chunk into s.text's array — grown when a single line
// needs more than c.size — and reports whether there was one; after the
// last, c.err tells why. A read error ends the input behind the bytes that
// came with it, as it does under a bufio.Scanner, whose limits these also
// are: a line must end within maxLineBytes unless the input ends first, and
// a hundred reads in a row without a byte or an error are io.ErrNoProgress.
func (c *lineChunker) next(s *edgeSlab) bool {
	if s.text == nil {
		s.text = make([]byte, 0, c.size)
	}
	buf := append(s.text[:0], c.tail...)
	c.tail = c.tail[:0]
	nl := -1 // the last '\n' in buf
	for empty := 0; c.err == nil && (len(buf) < c.size || nl < 0); {
		end := c.size
		if len(buf) >= c.size {
			end += len(buf)
		}
		if nl < 0 {
			if len(buf) >= maxLineBytes {
				c.err = bufio.ErrTooLong
				return false
			}
			end = min(end, maxLineBytes)
		}
		buf = slices.Grow(buf, end-len(buf))
		n, err := c.r.Read(buf[len(buf):end])
		if n < 0 || n > end-len(buf) {
			c.err = bufio.ErrBadReadCount
			return false
		}
		if i := bytes.LastIndexByte(buf[len(buf):len(buf)+n], '\n'); i >= 0 {
			nl = len(buf) + i
		}
		buf = buf[:len(buf)+n]
		switch {
		case err != nil:
			c.err = err
		case n > 0:
			empty = 0
		default:
			if empty++; empty == 100 {
				c.err = io.ErrNoProgress
			}
		}
	}
	if c.err == nil {
		c.tail = append(c.tail, buf[nl+1:]...)
		buf = buf[:nl+1]
	}
	s.text, s.line = buf, c.lines
	s.rows = bytes.Count(buf, []byte{'\n'})
	if len(buf) > 0 && buf[len(buf)-1] != '\n' {
		s.rows++
	}
	c.lines += s.rows
	return len(buf) > 0
}

// parse fills the slab from its text and signals s.parsed.
func (s *edgeSlab) parse() {
	if cap(s.edges) < s.rows {
		s.edges = make([]Edge, 0, s.rows)
	}
	s.edges, s.err = parseEdgeLines(s.text, s.line, s.edges[:0])
	s.parsed <- struct{}{}
}

// parseEdgeLines parses the lines of block, the first of which is line
// lineNo+1 of the input, and appends their edges to edges, which has room
// for one per line, up to the first line it rejects. Edges have no weight:
// a third field is refused, never ignored, since dropping it would change
// what the input's metrics mean.
//
// The block is parsed in place: '\n' is whitespace to every helper but
// skipBlank, which stops in front of it, so a field scan can never run on
// into the next line. Each line's handling leaves p on the line's '\n' (or at
// the end of the block).
func parseEdgeLines(block []byte, lineNo int, edges []Edge) (_ []Edge, err error) {
	for p := 0; p < len(block); p++ {
		lineNo++
		p = skipBlank(block, p)
		if atLineEnd(block, p) {
			continue
		}
		if block[p] == '#' || block[p] == '%' {
			p = lineEnd(block, p)
			continue
		}
		// A lone field is reported as such before it is judged as a number.
		srcAt := p
		src, srcEnd, srcOK := scanVertexID(block, srcAt)
		if !srcOK {
			srcEnd = fieldEnd(block, srcAt)
		}
		dstAt := skipBlank(block, srcEnd)
		if atLineEnd(block, dstAt) {
			err = fmt.Errorf("graph: line %d: expected \"src dst\", got %q", lineNo, block[srcAt:srcEnd])
			break
		}
		if !srcOK {
			err = badVertexField(lineNo, "source", block[srcAt:srcEnd])
			break
		}
		dst, dstEnd, ok := scanVertexID(block, dstAt)
		if !ok {
			err = badVertexField(lineNo, "destination", block[dstAt:fieldEnd(block, dstAt)])
			break
		}
		if p = skipBlank(block, dstEnd); !atLineEnd(block, p) {
			err = fmt.Errorf("graph: line %d: unexpected third field %q: edge weights are not supported", lineNo, block[p:fieldEnd(block, p)])
			break
		}
		edges = append(edges, Edge{Src: VertexID(src), Dst: VertexID(dst)})
	}
	return edges, err
}

// asciiSpace marks the ASCII whitespace characters (strings.Fields' set).
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// spaceAt returns the width of the whitespace character at b[p], 0 when
// there is none. Whitespace is unicode.IsSpace, as strings.Fields has it.
func spaceAt(b []byte, p int) int {
	if c := b[p]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return wideSpaceAt(b, p)
}

// wideSpaceAt is spaceAt for the whitespace beyond ASCII (U+0085, U+00A0,
// U+2000…), kept apart so that spaceAt inlines.
func wideSpaceAt(b []byte, p int) int {
	if r, size := utf8.DecodeRune(b[p:]); unicode.IsSpace(r) {
		return size
	}
	return 0
}

// skipBlank returns the position of the first byte of b at or after p that
// is not whitespace or is the '\n' ending the line, len(b) when there is
// none.
func skipBlank(b []byte, p int) int {
	for p < len(b) && b[p] != '\n' {
		n := spaceAt(b, p)
		if n == 0 {
			break
		}
		p += n
	}
	return p
}

// atLineEnd reports whether p, a position skipBlank returned, ends a line.
func atLineEnd(b []byte, p int) bool { return p == len(b) || b[p] == '\n' }

// lineEnd returns the position of the '\n' at or after p, len(b) when there
// is none.
func lineEnd(b []byte, p int) int {
	if nl := bytes.IndexByte(b[p:], '\n'); nl >= 0 {
		return p + nl
	}
	return len(b)
}

// fieldEnd returns the end of the field starting at b[p]: the position of
// the next whitespace character, or len(b).
func fieldEnd(b []byte, p int) int {
	for p < len(b) && spaceAt(b, p) == 0 {
		p++
	}
	return p
}

// scanVertexID parses the field starting at b[p] (p < len(b), not
// whitespace) as strconv.ParseInt(field, 10, 64) would — optional sign,
// decimal digits only, the full int64 range — and returns the position just
// past it. ok == false for any field ParseInt rejects; end is then
// meaningless.
func scanVertexID(b []byte, p int) (v int64, end int, ok bool) {
	neg := b[p] == '-'
	if neg || b[p] == '+' {
		p++
	}
	// At cutoff and beyond one more digit exceeds 2^63; below it n*10+9
	// cannot wrap.
	const cutoff = 1<<63/10 + 1
	var n uint64
	digits := p
	if p+8 <= len(b) {
		var k int
		n, k = leadingDigits(binary.LittleEndian.Uint64(b[p:]))
		p += k
	}
	for ; p < len(b); p++ {
		d := uint64(b[p] - '0')
		if d > 9 {
			break
		}
		if n >= cutoff {
			return 0, p, false
		}
		n = n*10 + d
	}
	if p == digits || (p < len(b) && spaceAt(b, p) == 0) {
		return 0, p, false
	}
	if neg {
		return int64(-n), p, n <= 1<<63
	}
	return int64(n), p, n < 1<<63
}

// leadingDigits takes eight bytes of text loaded little-endian and returns
// how many of them, from the first, are decimal digits, and the value of that
// run — without a branch, where a digit loop mispredicts its exit on every
// field.
func leadingDigits(w uint64) (v uint64, k int) {
	// Per byte: a digit becomes 0..9; anything else keeps a bit in its high
	// nibble, or gets one from the +6. A carry out of a byte only disturbs
	// bytes after the first non-digit.
	x := w ^ 0x3030303030303030
	k = bits.TrailingZeros64((x|(x+0x0606060606060606))&0xf0f0f0f0f0f0f0f0) >> 3
	// Left-align the run as eight digits with leading zeros, then add
	// neighbours pairwise: 2 × 1 digit, 2 × 2 digits, 2 × 4 digits.
	x <<= uint(8-k) * 8
	x = (x*10 + x>>8) & 0x00ff00ff00ff00ff
	x = (x*100 + x>>16) & 0x0000ffff0000ffff
	return (x*10000 + x>>32) & 0xffffffff, k
}

// badVertexField builds the error of a vertex field scanVertexID rejected:
// strconv.ParseInt rejects it too, and its error is the text callers have
// always seen.
func badVertexField(lineNo int, which string, field []byte) error {
	_, err := strconv.ParseInt(string(field), 10, 64)
	return fmt.Errorf("graph: line %d: bad %s vertex %q: %w", lineNo, which, field, err)
}

// ReadEdgeList parses a SNAP-style text edge list: lines of "src dst"
// separated by whitespace; lines starting with '#' or '%' are comments. A
// line with a third field is refused (edges have no weight). It parses like
// StreamEdgeList, keeps the parsed slabs and copies them into an edge
// array allocated once at its final size — so ingest allocates about twice
// the result, and both are live until it returns.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return readEdgeList(r, ingestChunkBytes, par.DefaultParallelism())
}

func readEdgeList(r io.Reader, chunkBytes, workers int) (*Graph, error) {
	var slabs [][]Edge
	total := 0
	if err := streamSlabs(r, chunkBytes, workers, func(s *edgeSlab) error {
		slabs = append(slabs, s.edges)
		total += len(s.edges)
		s.edges = nil
		return nil
	}); err != nil {
		return nil, err
	}
	if len(slabs) == 1 {
		return FromEdges(slabs[0]), nil
	}
	edges := make([]Edge, 0, total)
	for _, sl := range slabs {
		edges = append(edges, sl...)
	}
	return FromEdges(edges), nil
}

// ReadEdgeListBlocks parses the ReadEdgeList text format directly into a
// block-backed graph: batches stream from the parser into a BlockBuilder,
// so peak heap is one pending block plus the compressed payloads — the
// dense []Edge is never materialized. blockEdges 0 selects
// DefaultBlockEdges.
func ReadEdgeListBlocks(r io.Reader, blockEdges int) (*Graph, error) {
	bb := NewBlockBuilder(blockEdges)
	if err := StreamEdgeList(r, func(edges []Edge) error {
		bb.Append(edges)
		return nil
	}); err != nil {
		return nil, err
	}
	return FromBlocks(bb.Finish()), nil
}

// Binary edge payload: edge count (uvarint), then per edge the src delta
// (zig-zag varint from the previous src) and dst (zig-zag varint from src).
// Sorting by src before writing makes the deltas small; the format does not
// require sorted input, it only compresses better with it. The payload is
// the edge section of internal/snap's versioned, CRC-checked graph container
// and the unit of the block tier's compressed edge blocks.

// EncodeEdges appends the delta-varint binary encoding of edges to dst and
// returns the extended slice.
func EncodeEdges(dst []byte, edges []Edge) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	dst, _ = appendEdgeRun(dst, edges, 0)
	return dst
}

// AppendEncodedEdges appends the EncodeEdges encoding of g's dense edge
// list (tombstoned slots included) to dst and returns the extended slice.
// It encodes a block at a time, so a block-backed graph stays unmaterialized.
func (g *Graph) AppendEncodedEdges(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(g.NumEdges()))
	var prevSrc int64
	g.mustEdgeBlocks(func(_ int, edges []Edge) {
		dst, prevSrc = appendEdgeRun(dst, edges, prevSrc)
	})
	return dst
}

// appendEdgeRun appends the per-edge varints of edges to dst, the first
// source delta taken from prevSrc, and returns the extended slice and the
// last source.
func appendEdgeRun(dst []byte, edges []Edge, prevSrc int64) ([]byte, int64) {
	for _, e := range edges {
		dst = binary.AppendVarint(dst, int64(e.Src)-prevSrc)
		dst = binary.AppendVarint(dst, int64(e.Dst)-int64(e.Src))
		prevSrc = int64(e.Src)
	}
	return dst, prevSrc
}

// DecodeEdges parses an EncodeEdges payload, requiring that it is consumed
// exactly (no trailing bytes). The declared edge count is validated against
// the payload size before any allocation, so a forged count can never force
// an allocation larger than the input itself.
func DecodeEdges(data []byte) ([]Edge, error) {
	return decodeEdgesInto(data, nil, nil)
}

// decodeEdgesInto is DecodeEdges decoding into dst's capacity when it
// suffices (the block tier's scan path reuses one scratch slice across
// every block this way; pass nil to allocate fresh). A non-nil chunks, with
// room for all of them, gets each run of foldChunk edges once decoded.
func decodeEdgesInto(data []byte, dst []Edge, chunks chan<- []Edge) ([]Edge, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("graph: reading edge count: malformed varint")
	}
	data = data[n:]
	// Every edge costs at least two varint bytes.
	if count > uint64(len(data))/2+1 {
		return nil, fmt.Errorf("graph: edge count %d exceeds payload size", count)
	}
	var edges []Edge
	if uint64(cap(dst)) < count {
		edges = make([]Edge, count)
	} else {
		edges = dst[:count]
	}
	var prevSrc int64
	p := 0
	for i := range edges {
		ds, n := shortVarint(data, p)
		if n == 0 {
			if ds, n = binary.Varint(data[p:]); n <= 0 {
				return nil, fmt.Errorf("graph: edge %d: reading src: malformed varint", i)
			}
		}
		p += n
		src := prevSrc + ds
		dd, n := shortVarint(data, p)
		if n == 0 {
			if dd, n = binary.Varint(data[p:]); n <= 0 {
				return nil, fmt.Errorf("graph: edge %d: reading dst: malformed varint", i)
			}
		}
		p += n
		edges[i] = Edge{Src: VertexID(src), Dst: VertexID(src + dd)}
		prevSrc = src
		if end := i + 1; chunks != nil && (end%foldChunk == 0 || end == len(edges)) {
			chunks <- edges[i-i%foldChunk : end]
		}
	}
	if p != len(data) {
		return nil, fmt.Errorf("graph: %d trailing bytes after edge payload", len(data)-p)
	}
	return edges, nil
}

// shortVarint decodes the zig-zag varint at data[p:] when its encoding is
// at most three bytes long — every delta below 2^20, which is nearly all of
// them on graphs of up to a million vertices — and returns n == 0 for
// anything longer, truncated or malformed, which the caller hands to
// binary.Varint.
func shortVarint(data []byte, p int) (v int64, n int) {
	if p+3 > len(data) {
		return 0, 0
	}
	ux, n := uint64(data[p]), 1
	if ux >= 0x80 {
		ux, n = ux&0x7f|uint64(data[p+1])<<7, 2
		if ux >= 0x4000 {
			ux, n = ux&0x3fff|uint64(data[p+2])<<14, 3
			if ux >= 0x200000 {
				return 0, 0
			}
		}
	}
	return int64(ux>>1) ^ -int64(ux&1), n
}

// checkVertexListShape rejects a persisted vertex list that is not
// non-negative and strictly ascending.
func checkVertexListShape(verts []VertexID) error {
	if len(verts) > 0 && verts[0] < 0 {
		return fmt.Errorf("graph: restored vertex list has negative vertex ID %d", verts[0])
	}
	for i := 1; i < len(verts); i++ {
		if verts[i] <= verts[i-1] {
			return fmt.Errorf("graph: restored vertex list not strictly ascending at index %d", i)
		}
	}
	return nil
}

// restoreFold is what FromEdgesAndVertices folds over each chunk of edges
// right behind the decoder: the fingerprint chain (as foldFingerprint
// folds it) and the coverage marks, every endpoint looked up in the vertex
// list and marked used — in two bitsets for lists the buildVerts bitmap
// rule covers, with a hash lookup for sparse or huge ID spaces.
type restoreFold struct {
	h            uint64
	next         int // the dense slot of the next edge to fold
	maxV         uint64
	listed, used []uint64
	sparse       map[VertexID]bool // used, by listed vertex; nil when the bitsets are in use
}

// newRestoreFold starts the fold for a shape-checked vertex list.
func newRestoreFold(verts []VertexID) *restoreFold {
	f := &restoreFold{h: fingerprintSeed}
	n := len(verts)
	if n == 0 || !bitmapFits(verts[n-1], n) {
		f.sparse = make(map[VertexID]bool, n)
	} else {
		f.maxV = uint64(verts[n-1])
		f.listed, f.used = make([]uint64, f.maxV/64+1), make([]uint64, f.maxV/64+1)
	}
	for _, v := range verts {
		if f.sparse != nil {
			f.sparse[v] = false
		} else {
			f.listed[v>>6] |= 1 << (uint64(v) & 63)
		}
	}
	return f
}

// foldChunk is the edges the decoder hands the fold at once: 16 KiB, still
// in cache when folded.
const foldChunk = 1024

// fold folds the next decoded edges.
func (f *restoreFold) fold(edges []Edge) error {
	start := f.next
	f.next += len(edges)
	f.h = foldFingerprint(f.h, edges)
	for i, e := range edges {
		if !f.mark(e.Src) || !f.mark(e.Dst) {
			return fmt.Errorf("graph: edge %d (%d -> %d) has an endpoint missing from the restored vertex list", start+i, e.Src, e.Dst)
		}
	}
	return nil
}

// mark marks v used, reporting whether the vertex list holds it.
func (f *restoreFold) mark(v VertexID) bool {
	if f.sparse != nil {
		used, ok := f.sparse[v]
		if ok && !used {
			f.sparse[v] = true
		}
		return ok
	}
	x := uint64(v) // a negative ID converts to a value above maxV
	if x > f.maxV || f.listed[x>>6]&(1<<(x&63)) == 0 {
		return false
	}
	f.used[x>>6] |= 1 << (x & 63)
	return true
}

// checkUsed finishes the coverage check: every listed vertex an endpoint.
func (f *restoreFold) checkUsed(verts []VertexID) error {
	if f.sparse == nil && slices.Equal(f.listed, f.used) {
		return nil
	}
	for i, v := range verts {
		if f.sparse != nil && !f.sparse[v] || f.sparse == nil && f.used[v>>6]&(1<<(uint64(v)&63)) == 0 {
			return fmt.Errorf("graph: restored vertex list entry %d (vertex %d) appears in no edge", i, v)
		}
	}
	return nil
}

// FromEdgesAndVertices restores a graph as the snapshot codec persists it:
// the EncodeEdges payload of its dense edge list, its sorted unique vertex
// list and its tombstone bitset with the dead count (nil and 0 when nothing
// is retracted). Everything is validated: the vertex list against the
// edges — strictly ascending, non-negative, every edge endpoint present,
// every listed vertex used —, and the bitset as fitting the edge list with
// numDead its popcount. The edge list is read once (restoreFold);
// the vertex list and the fingerprint are seeded as the graph's views.
func FromEdgesAndVertices(payload []byte, verts []VertexID, dead []uint64, numDead int) (*Graph, error) {
	if err := checkVertexListShape(verts); err != nil {
		return nil, err
	}
	// The fold's chain is serial and costs about what the decode does, so
	// it runs on a second worker. The channel has room for every chunk (an
	// edge is at least two bytes): on one worker the fold runs after.
	f := newRestoreFold(verts)
	chunks := make(chan []Edge, len(payload)/(2*foldChunk)+1)
	var edges []Edge
	var decErr, foldErr error
	if err := par.ForEach(context.TODO(), par.DefaultParallelism(), 2, func(task int) {
		if task == 0 {
			defer close(chunks)
			edges, decErr = decodeEdgesInto(payload, nil, chunks)
			return
		}
		for c := range chunks {
			if foldErr == nil {
				foldErr = f.fold(c)
			}
		}
	}); err != nil {
		return nil, err
	}
	if decErr != nil {
		return nil, decErr
	}
	if foldErr != nil {
		return nil, foldErr
	}
	if err := f.checkUsed(verts); err != nil {
		return nil, err
	}
	if err := checkTombstones(dead, numDead, len(edges)); err != nil {
		return nil, err
	}
	g := &Graph{edges: edges, dead: dead, numDead: numDead, verts: verts}
	g.vertsOnce.markBuilt()
	g.fpEdges = f.h
	g.fp = foldDeadFingerprint(f.h, dead, numDead)
	g.fpOnce.markBuilt()
	return g, nil
}

// FromBlocksAndVertices restores a block-backed graph from an assembled
// store plus its sorted unique vertex list and tombstone bitset (nil and 0
// when nothing is retracted), as persisted by the block snapshot codec.
// Unlike FromEdgesAndVertices, the edges stay encoded — only the vertex
// list's shape (strictly ascending, non-negative) and the bitset are
// validated here; endpoint membership is implicitly covered by the codec's
// fingerprint check, because a wrong vertex list cannot reproduce the
// recorded fingerprint chain. The list is seeded as the graph's vertex
// view so restoring never pays the O(|E|) derivation scan.
func FromBlocksAndVertices(bs *BlockStore, verts []VertexID, dead []uint64, numDead int) (*Graph, error) {
	if err := checkVertexListShape(verts); err != nil {
		return nil, err
	}
	if err := checkTombstones(dead, numDead, bs.NumEdges()); err != nil {
		return nil, err
	}
	g := &Graph{blocks: bs, dead: dead, numDead: numDead, verts: verts}
	g.vertsOnce.markBuilt()
	return g, nil
}
