package graph

import (
	"bytes"
	"hash/crc32"
	"slices"
	"sync"
	"testing"

	"cutfit/internal/rng"
)

// randEdges returns n deterministic pseudo-random edges over [0, vmax).
func randEdges(n, vmax int, seed uint64) []Edge {
	r := rng.New(seed)
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{Src: VertexID(r.Intn(vmax)), Dst: VertexID(r.Intn(vmax))}
	}
	return edges
}

// buildBlocks packs edges into a store with small blocks so multi-block
// behavior is exercised on test-sized inputs.
func buildBlocks(t *testing.T, edges []Edge, blockEdges int) *BlockStore {
	t.Helper()
	bb := NewBlockBuilder(blockEdges)
	// Append in uneven chunks to exercise partial-batch sealing.
	for i := 0; i < len(edges); {
		n := 17 + i%29
		if i+n > len(edges) {
			n = len(edges) - i
		}
		bb.Append(edges[i : i+n])
		i += n
	}
	return bb.Finish()
}

func TestBlockStoreRoundTrip(t *testing.T) {
	edges := randEdges(1000, 500, 1)
	bs := buildBlocks(t, edges, 128)
	if bs.NumEdges() != len(edges) {
		t.Fatalf("NumEdges = %d, want %d", bs.NumEdges(), len(edges))
	}
	if bs.BlockEdges() != 128 {
		t.Fatalf("BlockEdges = %d, want 128", bs.BlockEdges())
	}
	if want := (len(edges) + 127) / 128; bs.NumBlocks() != want {
		t.Fatalf("NumBlocks = %d, want %d", bs.NumBlocks(), want)
	}
	var got []Edge
	if err := bs.forEach(func(start int, es []Edge) error {
		if start != len(got) {
			t.Fatalf("block start = %d, want %d", start, len(got))
		}
		got = append(got, es...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
	// Positional reads, on both sides of block boundaries.
	idx := []int{0, 127, 128, 500, len(edges) - 1}
	for k, e := range FromBlocks(bs).EdgesAt(idx) {
		if e != edges[idx[k]] {
			t.Fatalf("EdgesAt: edge %d = %v, want %v", idx[k], e, edges[idx[k]])
		}
	}
}

func TestBlockStoreExtendSharesSealedBlocks(t *testing.T) {
	edges := randEdges(300, 100, 6)
	bs := buildBlocks(t, edges, 128)
	suffix := randEdges(100, 100, 7)
	ext, err := bs.extend(suffix)
	if err != nil {
		t.Fatal(err)
	}
	if ext.NumEdges() != 400 {
		t.Fatalf("extended NumEdges = %d, want 400", ext.NumEdges())
	}
	// Sealed full blocks must be shared (same backing arrays), and the
	// parent must be untouched.
	if &ext.refs[0].enc[0] != &bs.refs[0].enc[0] || &ext.refs[1].enc[0] != &bs.refs[1].enc[0] {
		t.Fatal("extend re-encoded a sealed full block")
	}
	if bs.NumEdges() != 300 || len(bs.refs) != 3 {
		t.Fatal("extend mutated the parent store")
	}
	want := append(append([]Edge{}, edges...), suffix...)
	pos := 0
	if err := ext.forEach(func(_ int, es []Edge) error {
		for _, e := range es {
			if e != want[pos] {
				t.Fatalf("edge %d = %v, want %v", pos, e, want[pos])
			}
			pos++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// memReaderAt adapts a byte slice to io.ReaderAt for file-backed tests.
type memReaderAt struct{ data []byte }

func (m *memReaderAt) ReadAt(p []byte, off int64) (int, error) {
	copy(p, m.data[off:])
	return len(p), nil
}

// fileBackedCopy lays bs's payloads into a flat buffer and reopens it as a
// file-backed store, returning the store and the backing buffer.
func fileBackedCopy(t *testing.T, bs *BlockStore) (*BlockStore, []byte) {
	t.Helper()
	var buf bytes.Buffer
	var index []BlockIndexEntry
	for b := range bs.refs {
		enc, err := bs.BlockPayload(b)
		if err != nil {
			t.Fatal(err)
		}
		index = append(index, BlockIndexEntry{
			Count: uint32(bs.refs[b].count),
			Off:   uint64(buf.Len()),
			Len:   uint32(len(enc)),
			CRC:   crc32.ChecksumIEEE(enc),
		})
		buf.Write(enc)
	}
	data := buf.Bytes()
	fb, err := OpenBlocks(&memReaderAt{data}, bs.blockEdges, index)
	if err != nil {
		t.Fatal(err)
	}
	return fb, data
}

func TestOpenBlocksFileBacked(t *testing.T) {
	edges := randEdges(500, 200, 8)
	bs := buildBlocks(t, edges, 128)
	fb, _ := fileBackedCopy(t, bs)
	if fb.HeapBytes() >= bs.HeapBytes() {
		t.Fatalf("file-backed HeapBytes %d not below heap store %d", fb.HeapBytes(), bs.HeapBytes())
	}
	pos := 0
	if err := fb.forEach(func(_ int, es []Edge) error {
		for i := range es {
			if es[i] != edges[pos] {
				t.Fatalf("edge %d = %v, want %v", pos, es[i], edges[pos])
			}
			pos++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pos != 500 {
		t.Fatalf("scanned %d edges, want 500", pos)
	}
}

func TestOpenBlocksDetectsCorruption(t *testing.T) {
	edges := randEdges(300, 100, 10)
	bs := buildBlocks(t, edges, 128)
	fb, data := fileBackedCopy(t, bs)
	data[3] ^= 0xff
	if err := fb.forEach(func(int, []Edge) error { return nil }); err == nil {
		t.Fatal("corrupted payload decoded without error")
	}
}

func TestOpenBlocksValidatesGeometry(t *testing.T) {
	src := &memReaderAt{data: make([]byte, 64)}
	if _, err := OpenBlocks(src, 100, nil); err == nil {
		t.Fatal("accepted block size not a multiple of 64")
	}
	// Non-final block not full.
	bad := []BlockIndexEntry{{Count: 10, Len: 4}, {Count: 10, Len: 4}}
	if _, err := OpenBlocks(src, 128, bad); err == nil {
		t.Fatal("accepted short non-final block")
	}
}

func TestFromBlocksGraphEquivalence(t *testing.T) {
	edges := randEdges(2000, 700, 11)
	dense := FromEdges(edges)
	block := FromBlocks(buildBlocks(t, edges, 256))
	if !block.BlockBacked() {
		t.Fatal("FromBlocks graph not block-backed")
	}
	if dense.Fingerprint() != block.Fingerprint() {
		t.Fatalf("fingerprints differ: dense %016x block %016x", dense.Fingerprint(), block.Fingerprint())
	}
	if dense.NumVertices() != block.NumVertices() {
		t.Fatalf("NumVertices: dense %d block %d", dense.NumVertices(), block.NumVertices())
	}
	dv, bv := dense.Vertices(), block.Vertices()
	for i := range dv {
		if dv[i] != bv[i] {
			t.Fatalf("vertex %d: dense %d block %d", i, dv[i], bv[i])
		}
	}
	for _, v := range []VertexID{dv[0], dv[len(dv)/2], dv[len(dv)-1]} {
		if dense.OutDegree(v) != block.OutDegree(v) || dense.InDegree(v) != block.InDegree(v) {
			t.Fatalf("degree mismatch at vertex %d", v)
		}
	}
	idx := []int{0, 255, 256, 1999}
	if de, be := dense.EdgesAt(idx), block.EdgesAt(idx); !slices.Equal(de, be) {
		t.Fatalf("EdgesAt(%v): dense %v block %v", idx, de, be)
	}
	// EdgeRange across a block boundary.
	if de, be := dense.EdgeRange(200, 600), block.EdgeRange(200, 600); !slices.Equal(de, be) {
		t.Fatal("EdgeRange(200, 600): dense and block differ")
	}
	dl, dc := dense.ConnectedComponents()
	bl, bc := block.ConnectedComponents()
	if dc != bc {
		t.Fatalf("components: dense %d block %d", dc, bc)
	}
	for i := range dl {
		if dl[i] != bl[i] {
			t.Fatalf("component label %d differs", i)
		}
	}
}

func TestFromBlocksGrowShrinkEquivalence(t *testing.T) {
	edges := randEdges(1000, 300, 13)
	dense := FromEdges(edges)
	block := FromBlocks(buildBlocks(t, edges, 128))

	extra := randEdges(300, 300, 14)
	dg, dd := dense.Grow(extra)
	bg, bd := block.Grow(extra)
	if !bg.BlockBacked() {
		t.Fatal("grown graph lost its block backing")
	}
	if dd.OldLen != bd.OldLen || dd.Compacted != bd.Compacted {
		t.Fatalf("deltas differ: dense %+v block %+v", dd, bd)
	}
	if dg.Fingerprint() != bg.Fingerprint() {
		t.Fatalf("grown fingerprints differ: %016x vs %016x", dg.Fingerprint(), bg.Fingerprint())
	}

	retract := []Edge{edges[3], edges[500], extra[10]}
	ds, _, err := dg.Shrink(retract)
	if err != nil {
		t.Fatal(err)
	}
	bsG, _, err := bg.Shrink(retract)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumLiveEdges() != bsG.NumLiveEdges() {
		t.Fatalf("live edges after shrink: dense %d block %d", ds.NumLiveEdges(), bsG.NumLiveEdges())
	}
	if ds.Fingerprint() != bsG.Fingerprint() {
		t.Fatalf("shrunk fingerprints differ: %016x vs %016x", ds.Fingerprint(), bsG.Fingerprint())
	}

	// SlideWindow drives both append and expiry through the block path.
	win := randEdges(200, 300, 15)
	dsw, _ := ds.SlideWindow(win, 400)
	bsw, _ := bsG.SlideWindow(win, 400)
	if dsw.Fingerprint() != bsw.Fingerprint() {
		t.Fatalf("slid fingerprints differ: %016x vs %016x", dsw.Fingerprint(), bsw.Fingerprint())
	}
	if dsw.NumLiveEdges() != bsw.NumLiveEdges() {
		t.Fatalf("slid live edges: dense %d block %d", dsw.NumLiveEdges(), bsw.NumLiveEdges())
	}
}

func TestForEachEdgeBlockAllocs(t *testing.T) {
	edges := randEdges(1<<14, 4000, 17)
	g := FromBlocks(buildBlocks(t, edges, 1024))
	var n int
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		_ = g.ForEachEdgeBlock(func(_ int, es []Edge) error {
			n += len(es)
			return nil
		})
	})
	if n != len(edges) {
		t.Fatalf("scanned %d edges, want %d", n, len(edges))
	}
	// Pooled scratch: the scan must not allocate per edge — a handful of
	// allocs per scan (pool get, closure) is the budget, far below one per
	// block (16 blocks here).
	if allocs > 8 {
		t.Fatalf("ForEachEdgeBlock allocated %.0f objects per scan", allocs)
	}
}

// TestForEachEndpointBlockMatchesLookup checks the shared endpoint iterator
// against LookupIndices over ForEachEdgeBlock — the scratch loop each of its
// callers used to carry — on dense, block-backed and tombstoned graphs: the
// pieces tile the requested range in order, indices agree edge for edge, a
// dense graph gets one piece of its cached slices, and a block-backed one
// pieces no longer than a block, from ranges that start and end inside
// blocks.
func TestForEachEndpointBlockMatchesLookup(t *testing.T) {
	const n, blockEdges = 2000, 128
	edges := randEdges(n, 300, 21)
	shrunk := func(g *Graph) *Graph {
		t.Helper()
		out, _, err := g.Shrink([]Edge{edges[5], edges[900], edges[1999]})
		if err != nil || out.NumDeadEdges() == 0 {
			t.Fatalf("shrink: %v, %d dead", err, out.NumDeadEdges())
		}
		return out
	}
	for name, g := range map[string]*Graph{
		"dense":            FromEdges(append([]Edge(nil), edges...)),
		"dense tombstoned": shrunk(FromEdges(append([]Edge(nil), edges...))),
		"block":            FromBlocks(buildBlocks(t, edges, blockEdges)),
		"block tombstoned": shrunk(FromBlocks(buildBlocks(t, edges, blockEdges))),
	} {
		wantSrc, wantDst := make([]int32, n), make([]int32, n)
		if err := g.ForEachEdgeBlock(func(start int, es []Edge) error {
			g.LookupIndices(es, wantSrc[start:], wantDst[start:])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, n}, {0, 0}, {n, n}, {0, 1}, {127, 129}, {128, 256}, {130, 140}, {1, n - 1}, {1920, n}, {1999, n}} {
			next, pieces := r[0], 0
			err := g.ForEachEndpointBlock(r[0], r[1], func(start int, src, dst []int32) error {
				pieces++
				if start != next || len(src) == 0 || len(dst) != len(src) {
					t.Fatalf("%s %v: piece at %d of %d/%d indices, want one at %d", name, r, start, len(src), len(dst), next)
				}
				if g.BlockBacked() && len(src) > blockEdges {
					t.Fatalf("%s %v: a piece of %d edges from %d-edge blocks", name, r, len(src), blockEdges)
				}
				for j := range src {
					if src[j] != wantSrc[start+j] || dst[j] != wantDst[start+j] {
						t.Fatalf("%s %v: edge %d differs from LookupIndices", name, r, start+j)
					}
				}
				next += len(src)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != max(r[0], r[1]) || (!g.BlockBacked() && pieces > 1) {
				t.Fatalf("%s %v: %d pieces ending at %d", name, r, pieces, next)
			}
		}
		if s1, _ := g.EdgeEndpointIndices(); !g.BlockBacked() {
			_ = g.ForEachEndpointBlock(10, 20, func(_ int, src, _ []int32) error {
				if &src[0] != &s1[10] {
					t.Fatalf("%s: a dense graph's piece is not its cached slice", name)
				}
				return nil
			})
		}
	}
}

// TestConcurrentFileBackedReads has eight goroutines interleave every block
// read — EdgeRange, EdgesAt, ForEachEdgeBlock and ForEachEndpointBlock —
// over one file-backed store. Every result must equal the serial read:
// readers share the scratch pool with nothing ordering them.
func TestConcurrentFileBackedReads(t *testing.T) {
	const blockEdges, n = 128, 128*12 + 50
	edges := randEdges(n, 400, 31)
	fb, _ := fileBackedCopy(t, buildBlocks(t, edges, blockEdges))
	g := FromBlocks(fb)
	wantSrc, wantDst := FromEdges(edges).EdgeEndpointIndices()

	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(100 + w))
			for it := range 40 {
				lo := r.Intn(n)
				hi := lo + r.Intn(n-lo+1)
				switch (w + it) % 4 {
				case 0:
					if es := g.EdgeRange(lo, hi); !slices.Equal(es, edges[lo:hi]) {
						t.Errorf("worker %d: EdgeRange(%d, %d) differs from the serial read", w, lo, hi)
					}
				case 1:
					var idx []int
					for i := lo; i < hi; i += 1 + r.Intn(97) {
						idx = append(idx, i)
					}
					for k, e := range g.EdgesAt(idx) {
						if e != edges[idx[k]] {
							t.Errorf("worker %d: EdgesAt: edge %d = %v, want %v", w, idx[k], e, edges[idx[k]])
						}
					}
				case 2:
					next := 0
					if err := g.ForEachEdgeBlock(func(start int, es []Edge) error {
						if start != next || !slices.Equal(es, edges[start:start+len(es)]) {
							t.Errorf("worker %d: ForEachEdgeBlock block at %d differs from the serial read", w, start)
						}
						next += len(es)
						return nil
					}); err != nil || next != n {
						t.Errorf("worker %d: ForEachEdgeBlock scanned %d edges: %v", w, next, err)
					}
				default:
					if err := g.ForEachEndpointBlock(lo, hi, func(start int, src, dst []int32) error {
						end := start + len(src)
						if !slices.Equal(src, wantSrc[start:end]) || !slices.Equal(dst, wantDst[start:end]) {
							t.Errorf("worker %d: ForEachEndpointBlock piece at %d differs from the serial read", w, start)
						}
						return nil
					}); err != nil {
						t.Errorf("worker %d: ForEachEndpointBlock: %v", w, err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestReadEdgeListBlocks(t *testing.T) {
	var buf bytes.Buffer
	dense := FromEdges(randEdges(400, 50, 19))
	if err := dense.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadEdgeListBlocks(bytes.NewReader(buf.Bytes()), 128)
	if err != nil {
		t.Fatal(err)
	}
	if !g.BlockBacked() {
		t.Fatal("ReadEdgeListBlocks graph not block-backed")
	}
	if g.Fingerprint() != dense.Fingerprint() {
		t.Fatal("round-tripped block graph fingerprint differs")
	}
}

func TestStreamEdgeListBatches(t *testing.T) {
	var buf bytes.Buffer
	n := streamBatchEdges + 100 // force a flush mid-stream
	for i := 0; i < n; i++ {
		if i == n-1 {
			buf.WriteString("7\t8\n")
		} else {
			buf.WriteString("1\t2\n")
		}
	}
	var total, batches int
	var last Edge
	err := StreamEdgeList(bytes.NewReader(buf.Bytes()), func(edges []Edge) error {
		batches++
		total += len(edges)
		last = edges[len(edges)-1]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != n || batches != 2 {
		t.Fatalf("streamed %d edges in %d batches, want %d in 2", total, batches, n)
	}
	if last != (Edge{Src: 7, Dst: 8}) {
		t.Fatalf("final edge = %v, want 7 -> 8", last)
	}
}
