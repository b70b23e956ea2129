package snap

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cutfit/internal/graph"
)

// testBlockGraph builds a block-backed graph (block size 256) with a few
// tombstoned edges — the optional feature of the on-disk format.
func testBlockGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const ne = 2400
	bb := graph.NewBlockBuilder(256)
	edges := make([]graph.Edge, 0, 100)
	for i := 0; i < ne; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i / 50), Dst: graph.VertexID(100 + i%50)})
		if len(edges) == 100 {
			bb.Append(edges)
			edges = edges[:0]
		}
	}
	bb.Append(edges)
	g := graph.FromBlocks(bb.Finish())
	gs, _, err := g.Shrink([]graph.Edge{{Src: 0, Dst: 103}, {Src: 11, Dst: 117}, {Src: 40, Dst: 149}})
	if err != nil {
		t.Fatal(err)
	}
	if !gs.BlockBacked() {
		t.Fatal("shrink dropped the block tier")
	}
	return gs
}

func TestBlockGraphRoundTrip(t *testing.T) {
	g := testBlockGraph(t)
	path := filepath.Join(t.TempDir(), "graph.cfb")
	if err := SaveBlockGraph(path, g); err != nil {
		t.Fatal(err)
	}
	back, closer, err := OpenBlockGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	if !back.BlockBacked() {
		t.Fatal("opened graph is not block-backed")
	}
	if back.Fingerprint() != g.Fingerprint() {
		t.Fatalf("fingerprint differs after round trip: %016x != %016x", back.Fingerprint(), g.Fingerprint())
	}
	if !reflect.DeepEqual(back.Vertices(), g.Vertices()) {
		t.Fatal("vertices differ after round trip")
	}
	if back.NumEdges() != g.NumEdges() || back.NumDeadEdges() != g.NumDeadEdges() {
		t.Fatal("counts differ after round trip")
	}
	if !reflect.DeepEqual(back.EdgeRange(0, back.NumEdges()), g.EdgeRange(0, g.NumEdges())) {
		t.Fatal("edges differ after round trip")
	}
	for _, i := range []int{0, 3, 550, g.NumEdges() - 1} {
		if back.EdgeAlive(i) != g.EdgeAlive(i) {
			t.Fatalf("edge %d liveness differs after round trip", i)
		}
	}
	// The opened store serves blocks from the file: its heap cost is the
	// index, not the payloads.
	if hb, eb := back.Blocks().HeapBytes(), back.Blocks().EncodedBytes(); hb >= eb {
		t.Fatalf("file-backed store holds %d heap bytes for %d encoded", hb, eb)
	}
}

func TestBlockGraphCanonicalReWrite(t *testing.T) {
	g := testBlockGraph(t)
	var first bytes.Buffer
	if err := WriteBlockGraph(&first, g); err != nil {
		t.Fatal(err)
	}
	back, err := OpenBlockGraphAt(bytes.NewReader(first.Bytes()), int64(first.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteBlockGraph(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-writing an opened block graph is not byte-identical")
	}
}

func TestBlockGraphRejectsDenseGraph(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err := WriteBlockGraph(io.Discard, g); err == nil {
		t.Fatal("WriteBlockGraph accepted a dense graph")
	}
}

func TestBlockGraphDetectsCorruption(t *testing.T) {
	g := testBlockGraph(t)
	var buf bytes.Buffer
	if err := WriteBlockGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	open := func(data []byte) error {
		_, err := OpenBlockGraphAt(bytes.NewReader(data), int64(len(data)))
		return err
	}
	if err := open(clean); err != nil {
		t.Fatal(err)
	}
	// A flip anywhere — container prefix (header, table, sections) or the
	// payload region — must be rejected at open: the prefix by its CRCs,
	// the payloads by the fingerprint re-verification scan.
	for _, pos := range []int{9, 30, len(clean) / 2, len(clean) - 1} {
		mut := append([]byte(nil), clean...)
		mut[pos] ^= 0x40
		if err := open(mut); err == nil {
			t.Fatalf("accepted container with byte %d corrupted", pos)
		}
	}
	if err := open(clean[:len(clean)-7]); err == nil {
		t.Fatal("accepted truncated container")
	}
	if err := open(append(append([]byte(nil), clean...), 0)); err == nil {
		t.Fatal("accepted container with trailing byte")
	}
}

func TestOpenBlockGraphMissingFile(t *testing.T) {
	if _, _, err := OpenBlockGraph(filepath.Join(t.TempDir(), "absent.cfb")); err == nil {
		t.Fatal("opened a missing file")
	}
}

func TestSaveBlockGraphAtomic(t *testing.T) {
	g := testBlockGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.cfb")
	if err := SaveBlockGraph(path, g); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place; no temp files may survive.
	if err := SaveBlockGraph(path, g); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "graph.cfb" {
		t.Fatalf("directory holds %d entries after save, want only graph.cfb", len(ents))
	}
}

// TestEncodeGraphStreamsBlocks: encoding a block-backed graph reads it a
// block at a time — the graph pins no more heap afterwards than before (no
// dense copy left behind) — and yields the bytes its dense twin encodes to,
// across blocks and tombstones.
func TestEncodeGraphStreamsBlocks(t *testing.T) {
	const ne = 4000
	edges := make([]graph.Edge, ne)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID((i * 7919) % 900), Dst: graph.VertexID((i * 104729) % 1100)}
	}
	bb := graph.NewBlockBuilder(256)
	bb.Append(edges[:600])
	bb.Append(edges[600:])
	retract := []graph.Edge{edges[3], edges[1000], edges[ne-1]}
	block, _, err := graph.FromBlocks(bb.Finish()).Shrink(retract)
	if err != nil {
		t.Fatal(err)
	}
	dense, _, err := graph.FromEdges(edges).Shrink(retract)
	if err != nil {
		t.Fatal(err)
	}
	pinned := func() int64 {
		seen := map[any]bool{}
		var n int64
		for _, s := range block.Shares() {
			if !seen[s.Key] {
				seen[s.Key] = true
				n += s.Bytes
			}
		}
		return n
	}
	block.Vertices()
	before := pinned()
	got := EncodeGraph(block)
	if after := pinned(); after != before {
		t.Fatalf("encoding pinned %d B on the block graph, was %d B: it materialized", after, before)
	}
	if !block.BlockBacked() || !bytes.Equal(got, EncodeGraph(dense)) {
		t.Fatal("a block graph encodes differently from its dense twin")
	}
}
