package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"cutfit/internal/rng"
)

// streamResult is everything StreamEdgeList shows a caller: the batches in
// order (weights nil or aligned) and the error.
type streamResult struct {
	edges   [][]Edge
	weights [][]float64
	err     string
}

func collectStream(stream func(io.Reader, func([]Edge, []float64) error) error, data []byte) streamResult {
	var res streamResult
	err := stream(bytes.NewReader(data), func(edges []Edge, weights []float64) error {
		res.edges = append(res.edges, slices.Clone(edges))
		res.weights = append(res.weights, slices.Clone(weights))
		return nil
	})
	if err != nil {
		res.err = err.Error()
	}
	return res
}

// sameStream compares two results; weights by bit pattern, so NaN payloads
// and signed zeros cannot hide a difference.
func sameStream(a, b streamResult) error {
	if a.err != b.err {
		return fmt.Errorf("error %q, reference %q", a.err, b.err)
	}
	if len(a.edges) != len(b.edges) {
		return fmt.Errorf("%d batches, reference %d", len(a.edges), len(b.edges))
	}
	for i := range a.edges {
		if !slices.Equal(a.edges[i], b.edges[i]) {
			return fmt.Errorf("batch %d: edges differ from the reference", i)
		}
		if (a.weights[i] == nil) != (b.weights[i] == nil) {
			return fmt.Errorf("batch %d: weights nil = %t, reference %t", i, a.weights[i] == nil, b.weights[i] == nil)
		}
		if !slices.EqualFunc(a.weights[i], b.weights[i], func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			return fmt.Errorf("batch %d: weights differ from the reference", i)
		}
	}
	return nil
}

// streamSeeds are the inputs the text parser's two implementations are
// compared on before the fuzzer mutates them: every construct of the
// accepted language and every rejection, by line position.
var streamSeeds = []string{
	"1 2\n3 4\n",
	"# cutfit edge list: 2 vertices, 1 edges\n1\t2\n",
	"% matrix-market style comment\r\n5 6\r\n7 8\r\n",
	"",
	"\n\n\n",
	"   \t  \n",
	"+7 -0\n",
	"-9223372036854775808 9223372036854775807\n",
	"9223372036854775808 1\n",
	"-9223372036854775809 1\n",
	"99999999999999999999 1\n",             // 20 digits
	"1 00000000000000000000000000000042\n", // leading zeros past 19 digits
	"12345678 123456789\n",                 // eight digits and one more
	"1234567x 1\n",
	"1\n",
	"7\n8 9\n",
	"abc\n",
	"a b\n",
	"1 b\n",
	"+ 1\n",
	"- 1\n",
	"1 +\n",
	"0x10 7\n",
	"3.14 1\n",
	"1_000 2\n",
	"1 2 0\n",
	"1 2 Inf\n",
	"1 2 -Inf\n",
	"1 2 nan\n",
	"1 2 0.5\n3 4\n5 6 2e3 trailing garbage\n",
	"1 2\n3 4 1.5\n",
	"1 2 x\n",
	"1 2 trailing garbage\n",
	"7 8\n# trailing comment",
	"7 8",
	"7 8\r",
	"1\v2\f3\n",
	"\ufeff1 2\n",       // BOM glued to the first field
	"1\u00a02\n",        // NBSP separates fields
	"1\u20002\u30003\n", // en quad, ideographic space
	"1\u0085\n",         // NEL is whitespace: a lone field
	"1 \xc2 2\n",        // truncated rune is a field
	"1\xa02\n",          // a bare continuation byte is not whitespace
	"1 2\x00\n",         // NUL glued to a field
	"\x001 2\n",         // NUL in front
	"1 2\n\n3\n",        // error on line 4 after a blank line
	"# only a comment",
	"%\n#\n",
	"5 6 7 8 9\n",
	strings.Repeat("1 2\n", streamBatchEdges) + "3 4 2.5\n5 6\n", // weight after a full batch
	"1 2 " + strings.Repeat("x", 70<<10) + "\n3 4\n",             // a 70 KiB line grows the buffer
	strings.Repeat(" ", 70<<10) + "1 2\n",
}

func TestStreamEdgeListMatchesReference(t *testing.T) {
	for _, seed := range streamSeeds {
		got := collectStream(StreamEdgeList, []byte(seed))
		want := collectStream(streamEdgeListRef, []byte(seed))
		if err := sameStream(got, want); err != nil {
			show := seed
			if len(show) > 60 {
				show = show[:60] + "…"
			}
			t.Errorf("input %q: %v", show, err)
		}
	}
}

// TestStreamEdgeListLineLimit pins the 1 MiB line limit on both sides of it,
// and that lines before an over-long one are still judged first.
func TestStreamEdgeListLineLimit(t *testing.T) {
	const limit = 1 << 20
	fits := "1 2 " + strings.Repeat("x", limit-5) + "\n3 4\n" // limit-1 bytes and the newline
	long := "1 2 " + strings.Repeat("x", limit-4) + "\n3 4\n"
	for name, in := range map[string]string{
		"fits":                fits,
		"too long":            long,
		"too long at EOF":     strings.TrimSuffix(long, "\n3 4\n"),
		"bad line before it":  "x y\n" + long,
		"good lines before":   strings.Repeat("5 6\n", 3*streamBatchEdges) + long,
		"fits after good":     strings.Repeat("5 6\n", 3*streamBatchEdges) + fits,
		"long comment":        "#" + strings.Repeat("c", limit) + "\n1 2\n",
		"long blank":          strings.Repeat(" ", limit) + "\n1 2\n",
		"fits without a line": strings.Repeat("7", limit-1),
	} {
		got := collectStream(StreamEdgeList, []byte(in))
		want := collectStream(streamEdgeListRef, []byte(in))
		if err := sameStream(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// chunkReader hands out at most n bytes per Read, so block boundaries fall
// inside lines, fields and multi-byte characters.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(c.n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func TestStreamEdgeListShortReads(t *testing.T) {
	in := "# header\n12 34\r\n\n56 78 1.5\n9 10\n11"
	for n := 1; n <= 7; n++ {
		var got []Edge
		err := StreamEdgeList(&chunkReader{data: []byte(in), n: n}, func(edges []Edge, _ []float64) error {
			got = append(got, edges...)
			return nil
		})
		want := `graph: line 6: expected "src dst", got "11"`
		if err == nil || err.Error() != want {
			t.Fatalf("reads of %d bytes: error %v, want %s", n, err, want)
		}
		if len(got) != 0 {
			t.Fatalf("reads of %d bytes: %d edges delivered before the error, want none (one partial batch)", n, len(got))
		}
	}
}

// chunked is the parser cutting its input every chunkBytes bytes (moved up
// to the next line end) and parsing on workers goroutines.
func chunked(chunkBytes, workers int) func(io.Reader, func([]Edge, []float64) error) error {
	return func(r io.Reader, fn func([]Edge, []float64) error) error {
		return streamEdgeList(r, chunkBytes, workers, fn)
	}
}

// readResult is what ReadEdgeList shows a caller.
type readResult struct {
	edges   []Edge
	weights []float64
	err     string
}

// readRef is ReadEdgeList as it was: the reference parser's batches appended
// to one array, weights promoted at the first weighted batch.
func readRef(data []byte) readResult {
	var res readResult
	res.edges = []Edge{}
	err := streamEdgeListRef(bytes.NewReader(data), func(edges []Edge, weights []float64) error {
		if weights != nil && res.weights == nil {
			res.weights = appendOnes(make([]float64, 0, len(res.edges)), len(res.edges))
		}
		res.edges = append(res.edges, edges...)
		switch {
		case weights != nil:
			res.weights = append(res.weights, weights...)
		case res.weights != nil:
			res.weights = appendOnes(res.weights, len(edges))
		}
		return nil
	})
	if err != nil {
		return readResult{err: err.Error()}
	}
	return res
}

func sameRead(g *Graph, err error, want readResult) error {
	if err != nil || want.err != "" {
		if err == nil || err.Error() != want.err {
			return fmt.Errorf("error %v, reference %q", err, want.err)
		}
		return nil
	}
	if !slices.Equal(g.Edges(), want.edges) || g.Edges() == nil {
		return fmt.Errorf("edges differ from the reference")
	}
	if (g.Weights() == nil) != (want.weights == nil) || !slices.Equal(g.Weights(), want.weights) {
		return fmt.Errorf("weights differ from the reference")
	}
	return nil
}

// TestStreamEdgeListChunkBoundaries cuts the parser's input every few
// bytes, so that chunk ends fall everywhere a line, a batch and the first
// weight can meet them, and requires of one and of eight parsing goroutines
// what the line-by-line reference delivers: batches, weights, error text and
// line number — and of ReadEdgeList the same edge and weight arrays.
func TestStreamEdgeListChunkBoundaries(t *testing.T) {
	batch := strings.Repeat("1 2\n", streamBatchEdges)
	inputs := append([]string{
		"1 2\n3 4\n5 6\n7 8 2.5\n9 10\n",                     // the first weight in a later chunk than weightless lines
		batch + "1 2\n3 4\n" + "5 6 0.5\n" + batch + "7 8\n", // ... and in a later batch, mid-batch
		batch[:len(batch)-4] + "5 6 0.5\n" + batch,           // ... on a batch's last edge
		"1 2\r\n3 4 1.5\r\n\r\n5 6\r\n",                      // CRLF
		"1 2\n3 4\n5 6",                                      // no trailing newline
		"1 2\n3 4 7",                                         // ... on a weighted line
		"1 2\n# one\n# two\n\n%\n   \n# three\n3 4\n",        // chunks of comments and blanks only
		"1 2\n3 4 " + strings.Repeat("9", 300) + "\n5 6\n",   // a line longer than any chunk here
		"1 2\nx y\n3 4\nz\n5 6 -1\n",                         // bad lines in later chunks too: the first one wins
		"1 2\n3 4 0\n5\n",                                    // ... a bad weight before a lone field
		batch + "1 2\n3 4\nx\n" + batch + "y\n",              // ... after a full batch was delivered
	}, streamSeeds...)
	for _, in := range inputs {
		want := collectStream(streamEdgeListRef, []byte(in))
		wantRead := readRef([]byte(in))
		sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 31, 64, 4096}
		if len(in) > 1<<12 {
			sizes = []int{3, 8, 100, 4096} // the long seeds: a sample is enough
		}
		for _, size := range sizes {
			for _, workers := range []int{1, 8} {
				show := in
				if len(show) > 40 {
					show = show[:40] + "…"
				}
				if err := sameStream(collectStream(chunked(size, workers), []byte(in)), want); err != nil {
					t.Errorf("input %q, chunks of %d, %d workers: %v", show, size, workers, err)
				}
				g, err := readEdgeList(strings.NewReader(in), size, workers)
				if err := sameRead(g, err, wantRead); err != nil {
					t.Errorf("input %q read in chunks of %d, %d workers: %v", show, size, workers, err)
				}
			}
		}
	}
}

// TestStreamEdgeListLineLimitChunked is the 1 MiB line limit seen through
// chunks far smaller than the line.
func TestStreamEdgeListLineLimitChunked(t *testing.T) {
	const limit = 1 << 20
	for name, in := range map[string]string{
		"fits":            "5 6\n1 2 " + strings.Repeat("x", limit-5) + "\n3 4\n",
		"too long":        "5 6\n1 2 " + strings.Repeat("x", limit-4) + "\n3 4\n",
		"bad line before": "5 6\nx y\n1 2 " + strings.Repeat("x", limit-4) + "\n3 4\n",
		"fits at the end": "5 6\n" + strings.Repeat("7", limit-1),
		"too long at end": "5 6\n" + strings.Repeat("7", limit),
	} {
		want := collectStream(streamEdgeListRef, []byte(in))
		for _, size := range []int{5, 1000, 1 << 16} {
			if err := sameStream(collectStream(chunked(size, 8), []byte(in)), want); err != nil {
				t.Errorf("%s, chunks of %d: %v", name, size, err)
			}
		}
	}
}

// failingReader returns its data and then, in place of io.EOF, err.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestStreamEdgeListReadError: what was read before a reader failed is
// parsed, an unfinished last line included, and a bad line in it is reported
// rather than the read error — the bufio.Scanner's order.
func TestStreamEdgeListReadError(t *testing.T) {
	boom := fmt.Errorf("boom")
	for _, in := range []string{"1 2\n3 4\n5 6", "1 2\nx\n3 4\n", ""} {
		for _, size := range []int{2, 5, 1 << 16} {
			collect := func(stream func(io.Reader, func([]Edge, []float64) error) error) (edges []Edge, err error) {
				err = stream(&failingReader{data: []byte(in), err: boom}, func(es []Edge, _ []float64) error {
					edges = append(edges, es...)
					return nil
				})
				return edges, err
			}
			got, gerr := collect(chunked(size, 8))
			want, werr := collect(streamEdgeListRef)
			if gerr == nil || gerr.Error() != werr.Error() || !slices.Equal(got, want) {
				t.Errorf("input %q, chunks of %d: %d edges and error %v, reference %d and %v", in, size, len(got), gerr, len(want), werr)
			}
		}
	}
}

// TestStreamEdgeListStopsOnCallbackError: an error from fn ends the stream
// with that error, and fn is not called again.
func TestStreamEdgeListStopsOnCallbackError(t *testing.T) {
	in := strings.Repeat("1 2\n", 5*streamBatchEdges)
	stop := fmt.Errorf("stop")
	for _, workers := range []int{1, 8} {
		calls := 0
		err := streamEdgeList(strings.NewReader(in), 1000, workers, func([]Edge, []float64) error {
			if calls++; calls == 2 {
				return stop
			}
			return nil
		})
		if err != stop || calls != 2 {
			t.Errorf("%d workers: error %v after %d calls, want %v after 2", workers, err, calls, stop)
		}
	}
}

// FuzzStreamEdgeList requires the parser and its strconv reference to agree
// on every input: the same batches of edges, the same weights, the same
// error text with the same line number — as shipped (chunk 0) and cut every
// chunk bytes for one to eight parsing goroutines.
func FuzzStreamEdgeList(f *testing.F) {
	for _, s := range streamSeeds {
		f.Add([]byte(s), uint16(0), uint8(0))
		f.Add([]byte(s), uint16(5), uint8(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, workers uint8) {
		stream := StreamEdgeList
		if chunk > 0 {
			stream = chunked(int(chunk), 1+int(workers%8))
		}
		got := collectStream(stream, data)
		want := collectStream(streamEdgeListRef, data)
		if err := sameStream(got, want); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLeadingDigits checks the branch-free digit run against the obvious
// loop on every run length, at every fill byte that borders the digits.
func TestLeadingDigits(t *testing.T) {
	r := rng.New(7)
	fills := []byte{0, '\t', '\n', ' ', '/', ':', '?', '@', 'a', 0x7f, 0x80, 0xc9, 0xf6, 0xfa, 0xff}
	for k := 0; k <= 8; k++ {
		for _, fill := range fills {
			for rep := 0; rep < 50; rep++ {
				var b [8]byte
				var want uint64
				for i := range b {
					switch {
					case i < k:
						b[i] = '0' + byte(r.Uint64()%10)
						want = want*10 + uint64(b[i]-'0')
					case i == k:
						b[i] = fill
					default:
						b[i] = byte(r.Uint64())
					}
				}
				v, n := leadingDigits(binary.LittleEndian.Uint64(b[:]))
				if n != k || v != want {
					t.Fatalf("bytes %q: got value %d over %d digits, want %d over %d", b[:], v, n, want, k)
				}
			}
		}
	}
}

// TestReadEdgeListAllocsPerBatch pins ingest to O(batches) allocations — a
// few per chunk of text (its buffer, its slab of edges) and the final array
// — where a per-line string, field slice or boxed error would cost one or
// more per each of the 100k lines.
func TestReadEdgeListAllocsPerBatch(t *testing.T) {
	const lines = 100_000
	var text bytes.Buffer
	r := rng.New(3)
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&text, "%d\t%d\n", r.Uint64()%50_000, r.Uint64()%50_000)
	}
	batches := (lines + streamBatchEdges - 1) / streamBatchEdges
	allocs := testing.AllocsPerRun(5, func() {
		g, err := ReadEdgeList(bytes.NewReader(text.Bytes()))
		if err != nil || g.NumEdges() != lines {
			t.Fatalf("ingest: %v, %d edges", err, g.NumEdges())
		}
	})
	if limit := float64(4 * batches); allocs > limit {
		t.Fatalf("ingesting %d lines in %d batches made %.0f allocations, want at most %.0f", lines, batches, allocs, limit)
	}
}

// TestReadEdgeListAllocatesTwiceTheResult bounds what ingest allocates at
// the size of the tailor-cold benchmark graph: the slabs (once the edge
// array), the array itself and a few chunks of text in flight — no more than
// 2.2 × the edge array with two parsing goroutines, where growing the array
// by append allocated 4.8 ×.
func TestReadEdgeListAllocatesTwiceTheResult(t *testing.T) {
	const lines = 1 << 19
	text := make([]byte, 0, 14*lines)
	r := rng.New(5)
	for i := 0; i < lines; i++ {
		text = strconv.AppendUint(text, r.Uint64()%65536, 10)
		text = append(text, '\t')
		text = strconv.AppendUint(text, r.Uint64()%65536, 10)
		text = append(text, '\n')
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		g, err := readEdgeList(bytes.NewReader(text), ingestChunkBytes, 2)
		if err != nil || g.NumEdges() != lines {
			t.Fatalf("ingest: %v, %d edges", err, g.NumEdges())
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	edgeArray := float64(lines) * float64(unsafe.Sizeof(Edge{}))
	if perRun > 2.2*edgeArray {
		t.Fatalf("ingesting %d lines allocated %.1f MB, %.2f × the %.1f MB edge array; want at most 2.2 ×",
			lines, perRun/1e6, perRun/edgeArray, edgeArray/1e6)
	}
}

func TestReadEdgeListWeightsAcrossBatches(t *testing.T) {
	var text strings.Builder
	for i := 0; i < streamBatchEdges+10; i++ {
		fmt.Fprintf(&text, "%d %d\n", i, i+1)
	}
	text.WriteString("1 2 2.5\n3 4\n")
	g, err := ReadEdgeList(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumEdges()
	if n != streamBatchEdges+12 || len(g.Weights()) != n {
		t.Fatalf("%d edges, %d weights", n, len(g.Weights()))
	}
	for i, w := range g.Weights() {
		want := 1.0
		if i == n-2 {
			want = 2.5
		}
		if w != want {
			t.Fatalf("weight %d = %g, want %g", i, w, want)
		}
	}
}

// TestDecodeEdgesMatchesReference compares the short-varint decoder with
// binary.Varint on deltas around every encoding-length boundary, on
// payloads cut short at every byte, and on non-canonical and overlong
// varints.
func TestDecodeEdgesMatchesReference(t *testing.T) {
	check := func(name string, data []byte) {
		t.Helper()
		got, gerr := DecodeEdges(data)
		want, werr := decodeEdgesRef(data)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: edges differ from the reference", name)
		}
	}
	var edges []Edge
	var at VertexID
	for _, d := range []int64{0, 1, -1, 63, -64, 64, -65, 8191, -8192, 8192, -8193, 1<<20 - 1, -1 << 20, 1 << 20, -1<<20 - 1, 1 << 40, -1 << 40, 1<<62 - 1, -1 << 62} {
		edges = append(edges, Edge{Src: at + VertexID(d), Dst: at})
		at += VertexID(d)
		edges = append(edges, Edge{Src: at, Dst: at + VertexID(d)})
	}
	r := rng.New(11)
	for i := 0; i < 2000; i++ {
		edges = append(edges, Edge{Src: VertexID(r.Uint64() % (1 << (r.Uint64() % 40))), Dst: VertexID(r.Uint64() % (1 << 17))})
	}
	enc := EncodeEdges(nil, edges)
	check("full payload", enc)
	for cut := 0; cut < 400; cut++ {
		check(fmt.Sprintf("cut to %d bytes", cut), enc[:cut])
		check(fmt.Sprintf("cut by %d bytes", cut), enc[:len(enc)-cut])
	}
	check("trailing byte", append(slices.Clone(enc), 0))
	for name, payload := range map[string][]byte{
		"non-canonical two-byte zero":   {1, 0x80, 0x00, 0x02},
		"non-canonical three-byte zero": {1, 0x80, 0x80, 0x00, 0x02},
		"four-byte varint":              {1, 0x80, 0x80, 0x80, 0x01, 0x02},
		"ten-byte varint":               {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x02},
		"eleven-byte varint":            {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x02},
		"unterminated at the end":       {2, 0x02, 0x02, 0x80, 0x80},
		"count beyond payload":          {9, 0x02, 0x02},
	} {
		check(name, payload)
	}
}

// TestFromEdgesAndVerticesRejectsHostileLists feeds snapshots whose vertex
// list does not describe their edge list; every one must be rejected, with
// the text the reference gives.
func TestFromEdgesAndVerticesRejectsHostileLists(t *testing.T) {
	edges := []Edge{{0, 5}, {5, 9}, {9, 0}, {3, 3}}
	wide := []Edge{{1 << 40, 7}, {7, 1 << 39}} // past the bitmap rule: hash fallback
	cases := []struct {
		name  string
		edges []Edge
		verts []VertexID
	}{
		{"negative", edges, []VertexID{-1, 0, 3, 5, 9}},
		{"unsorted", edges, []VertexID{0, 5, 3, 9}},
		{"duplicate", edges, []VertexID{0, 3, 3, 5, 9}},
		{"source missing", edges, []VertexID{0, 3, 9}},
		{"destination missing", edges, []VertexID{0, 3, 5}},
		{"endpoint above the list", edges, []VertexID{0, 3, 5}},
		{"negative endpoint", []Edge{{0, 5}, {-5, 0}}, []VertexID{0, 5}},
		{"vertex unused", edges, []VertexID{0, 3, 4, 5, 9}},
		{"vertex unused at the end", edges, []VertexID{0, 3, 5, 9, 10}},
		{"vertex unused far beyond", edges, []VertexID{0, 3, 5, 9, 1 << 50}},
		{"vertices without edges", nil, []VertexID{0, 1}},
		{"edges without vertices", edges, nil},
		{"sparse: negative", wide, []VertexID{-3, 7, 1 << 39, 1 << 40}},
		{"sparse: duplicate", wide, []VertexID{7, 7, 1 << 39, 1 << 40}},
		{"sparse: endpoint missing", wide, []VertexID{7, 1 << 40}},
		{"sparse: vertex unused", wide, []VertexID{7, 8, 1 << 39, 1 << 40}},
	}
	for _, c := range cases {
		_, err := FromEdgesAndVertices(slices.Clone(c.edges), slices.Clone(c.verts))
		want := checkRestoredVertsRef(c.edges, c.verts)
		if want == nil {
			t.Fatalf("%s: the reference accepts the case", c.name)
		}
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, reference %v", c.name, err, want)
		}
	}
}

func TestFromEdgesAndVerticesAccepts(t *testing.T) {
	r := rng.New(5)
	random := make([]Edge, 5000)
	for i := range random {
		random[i] = Edge{Src: VertexID(r.Uint64() % 3000), Dst: VertexID(r.Uint64() % 3000)}
	}
	for name, edges := range map[string][]Edge{
		"empty":       nil,
		"dense":       {{0, 1}, {1, 2}, {2, 0}},
		"gaps":        {{0, 5}, {5, 9}, {9, 0}, {3, 3}},
		"random":      random,
		"word border": {{63, 64}, {127, 128}, {64, 63}},
		"sparse 2^40": {{1 << 40, 7}, {7, 1 << 39}, {1<<40 - 1, 1 << 40}},
		"sparse tiny": {{1 << 62, 1 << 61}},
	} {
		verts := FromEdges(slices.Clone(edges)).Vertices()
		if err := checkRestoredVertsRef(edges, verts); err != nil {
			t.Fatalf("%s: the reference rejects the case: %v", name, err)
		}
		g, err := FromEdgesAndVertices(slices.Clone(edges), verts)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !slices.Equal(g.Vertices(), verts) || g.NumEdges() != len(edges) {
			t.Errorf("%s: restored %d vertices, %d edges", name, g.NumVertices(), g.NumEdges())
		}
	}
}
