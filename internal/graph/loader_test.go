package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

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

// FuzzStreamEdgeList requires the parser and its strconv reference to agree
// on every input: the same batches of edges, the same weights, the same
// error text with the same line number.
func FuzzStreamEdgeList(f *testing.F) {
	for _, s := range streamSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := collectStream(StreamEdgeList, data)
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

// TestReadEdgeListAllocsPerBatch pins ingest to O(batches) allocations —
// the scanner, its buffer, the batch and the edge array's regrowth — where a
// per-line string, field slice or boxed error would cost one or more per
// each of the 100k lines.
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
