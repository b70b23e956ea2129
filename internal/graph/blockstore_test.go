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

// randWeights returns n deterministic positive weights.
func randWeights(n int, seed uint64) []float64 {
	r := rng.New(seed)
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + float64(r.Intn(1000))/100
	}
	return w
}

// buildBlocks packs edges (+ optional weights) into a store with small
// blocks so multi-block behavior is exercised on test-sized inputs.
func buildBlocks(t *testing.T, edges []Edge, weights []float64, blockEdges int) *BlockStore {
	t.Helper()
	bb := NewBlockBuilder(blockEdges)
	// Append in uneven chunks to exercise partial-batch sealing.
	for i := 0; i < len(edges); {
		n := 17 + i%29
		if i+n > len(edges) {
			n = len(edges) - i
		}
		if weights != nil {
			bb.Append(edges[i:i+n], weights[i:i+n])
		} else {
			bb.Append(edges[i:i+n], nil)
		}
		i += n
	}
	return bb.Finish()
}

func TestBlockStoreRoundTrip(t *testing.T) {
	edges := randEdges(1000, 500, 1)
	bs := buildBlocks(t, edges, nil, 128)
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
	if err := bs.forEach(func(start int, es []Edge, ws []float64) error {
		if start != len(got) {
			t.Fatalf("block start = %d, want %d", start, len(got))
		}
		if ws != nil {
			t.Fatal("unweighted store yielded weights")
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

func TestBlockStoreWeights(t *testing.T) {
	edges := randEdges(600, 300, 2)
	weights := randWeights(600, 3)
	bs := buildBlocks(t, edges, weights, 128)
	if !bs.Weighted() {
		t.Fatal("store not weighted")
	}
	pos := 0
	if err := bs.forEach(func(start int, es []Edge, ws []float64) error {
		if len(ws) != len(es) {
			t.Fatalf("block at %d: %d weights for %d edges", start, len(ws), len(es))
		}
		for i := range ws {
			if ws[i] != weights[pos] {
				t.Fatalf("weight %d = %g, want %g", pos, ws[i], weights[pos])
			}
			pos++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_, ws := FromBlocks(bs).EdgeRange(100, 600)
	if len(ws) != 500 {
		t.Fatalf("EdgeRange(100, 600) returned %d weights", len(ws))
	}
	for i, w := range ws {
		if w != weights[100+i] {
			t.Fatalf("EdgeRange weight %d = %g, want %g", 100+i, w, weights[100+i])
		}
	}
}

func TestBlockBuilderWeightPromotion(t *testing.T) {
	edges := randEdges(300, 100, 4)
	bb := NewBlockBuilder(128)
	bb.Append(edges[:200], nil) // seals one implicit-ones block + 72 pending
	w := randWeights(100, 5)
	bb.Append(edges[200:], w)
	bs := bb.Finish()
	if !bs.Weighted() {
		t.Fatal("store not promoted to weighted")
	}
	_, ws := FromBlocks(bs).EdgeRange(0, 300)
	if len(ws) != 300 {
		t.Fatalf("EdgeRange(0, 300) returned %d weights", len(ws))
	}
	for i, got := range ws {
		want := 1.0
		if i >= 200 {
			want = w[i-200]
		}
		if got != want {
			t.Fatalf("weight %d = %g, want %g", i, got, want)
		}
	}
	// The block sealed before promotion must carry no sidecar.
	if bs.refs[0].wenc != nil {
		t.Fatal("pre-promotion block has an explicit weight sidecar")
	}
}

func TestBlockStoreExtendSharesSealedBlocks(t *testing.T) {
	edges := randEdges(300, 100, 6)
	bs := buildBlocks(t, edges, nil, 128)
	suffix := randEdges(100, 100, 7)
	ext, err := bs.extend(suffix, nil, false)
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
	if err := ext.forEach(func(_ int, es []Edge, _ []float64) error {
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
		enc, wenc, err := bs.BlockPayload(b)
		if err != nil {
			t.Fatal(err)
		}
		ent := BlockIndexEntry{
			Count: uint32(bs.refs[b].count),
			Off:   uint64(buf.Len()),
			Len:   uint32(len(enc)),
			CRC:   crc32.ChecksumIEEE(enc),
		}
		buf.Write(enc)
		if wenc != nil {
			ent.WOff = uint64(buf.Len())
			ent.WLen = uint32(len(wenc))
			ent.WCRC = crc32.ChecksumIEEE(wenc)
			buf.Write(wenc)
		}
		index = append(index, ent)
	}
	data := buf.Bytes()
	fb, err := OpenBlocks(&memReaderAt{data}, bs.blockEdges, bs.weighted, index)
	if err != nil {
		t.Fatal(err)
	}
	return fb, data
}

func TestOpenBlocksFileBacked(t *testing.T) {
	edges := randEdges(500, 200, 8)
	weights := randWeights(500, 9)
	bs := buildBlocks(t, edges, weights, 128)
	fb, _ := fileBackedCopy(t, bs)
	if fb.HeapBytes() >= bs.HeapBytes() {
		t.Fatalf("file-backed HeapBytes %d not below heap store %d", fb.HeapBytes(), bs.HeapBytes())
	}
	pos := 0
	if err := fb.forEach(func(_ int, es []Edge, ws []float64) error {
		for i := range es {
			if es[i] != edges[pos] || ws[i] != weights[pos] {
				t.Fatalf("edge %d = %v/%g, want %v/%g", pos, es[i], ws[i], edges[pos], weights[pos])
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
	bs := buildBlocks(t, edges, nil, 128)
	fb, data := fileBackedCopy(t, bs)
	data[3] ^= 0xff
	if err := fb.forEach(func(int, []Edge, []float64) error { return nil }); err == nil {
		t.Fatal("corrupted payload decoded without error")
	}
}

func TestOpenBlocksValidatesGeometry(t *testing.T) {
	src := &memReaderAt{data: make([]byte, 64)}
	if _, err := OpenBlocks(src, 100, false, nil); err == nil {
		t.Fatal("accepted block size not a multiple of 64")
	}
	// Non-final block not full.
	bad := []BlockIndexEntry{{Count: 10, Len: 4}, {Count: 10, Len: 4}}
	if _, err := OpenBlocks(src, 128, false, bad); err == nil {
		t.Fatal("accepted short non-final block")
	}
	// Sidecar on an unweighted store.
	bad = []BlockIndexEntry{{Count: 10, Len: 4, WLen: 80}}
	if _, err := OpenBlocks(src, 128, false, bad); err == nil {
		t.Fatal("accepted weight sidecar on unweighted store")
	}
	// Sidecar length mismatched with edge count.
	bad = []BlockIndexEntry{{Count: 10, Len: 4, WLen: 79}}
	if _, err := OpenBlocks(src, 128, true, bad); err == nil {
		t.Fatal("accepted misaligned weight sidecar")
	}
}

func TestFromBlocksGraphEquivalence(t *testing.T) {
	edges := randEdges(2000, 700, 11)
	weights := randWeights(2000, 12)
	dense, err := FromWeightedEdges(edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	block := FromBlocks(buildBlocks(t, edges, weights, 256))
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
	de, dw := dense.EdgeRange(200, 600)
	be, bw := block.EdgeRange(200, 600)
	for i := range de {
		if de[i] != be[i] || dw[i] != bw[i] {
			t.Fatalf("EdgeRange mismatch at offset %d", i)
		}
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
	block := FromBlocks(buildBlocks(t, edges, nil, 128))

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
	dsw, _, err := ds.SlideWindow(win, nil, 400)
	if err != nil {
		t.Fatal(err)
	}
	bsw, _, err := bsG.SlideWindow(win, nil, 400)
	if err != nil {
		t.Fatal(err)
	}
	if dsw.Fingerprint() != bsw.Fingerprint() {
		t.Fatalf("slid fingerprints differ: %016x vs %016x", dsw.Fingerprint(), bsw.Fingerprint())
	}
	if dsw.NumLiveEdges() != bsw.NumLiveEdges() {
		t.Fatalf("slid live edges: dense %d block %d", dsw.NumLiveEdges(), bsw.NumLiveEdges())
	}
}

func TestForEachEdgeBlockAllocs(t *testing.T) {
	edges := randEdges(1<<14, 4000, 17)
	g := FromBlocks(buildBlocks(t, edges, nil, 1024))
	var n int
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		_ = g.ForEachEdgeBlock(func(_ int, es []Edge, _ []float64) error {
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
// callers used to carry — on dense, block-backed, weighted and tombstoned
// graphs: the pieces tile the requested range in order, indices and weights
// agree edge for edge, a dense graph gets one piece of its cached slices, and
// a block-backed one pieces no longer than a block, without weights unless
// asked, from ranges that start and end inside blocks.
func TestForEachEndpointBlockMatchesLookup(t *testing.T) {
	const n, blockEdges = 2000, 128
	edges := randEdges(n, 300, 21)
	weights := randWeights(n, 22)
	shrunk := func(g *Graph) *Graph {
		t.Helper()
		out, _, err := g.Shrink([]Edge{edges[5], edges[900], edges[1999]})
		if err != nil || out.NumDeadEdges() == 0 {
			t.Fatalf("shrink: %v, %d dead", err, out.NumDeadEdges())
		}
		return out
	}
	weightedDense, err := FromWeightedEdges(append([]Edge(nil), edges...), append([]float64(nil), weights...))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{
		"dense":                     FromEdges(append([]Edge(nil), edges...)),
		"dense weighted":            weightedDense,
		"dense tombstoned":          shrunk(FromEdges(append([]Edge(nil), edges...))),
		"block":                     FromBlocks(buildBlocks(t, edges, nil, blockEdges)),
		"block weighted":            FromBlocks(buildBlocks(t, edges, weights, blockEdges)),
		"block weighted tombstoned": shrunk(FromBlocks(buildBlocks(t, edges, weights, blockEdges))),
	} {
		wantSrc, wantDst := make([]int32, n), make([]int32, n)
		var wantW []float64
		if err := g.ForEachEdgeBlock(func(start int, es []Edge, ws []float64) error {
			g.LookupIndices(es, wantSrc[start:], wantDst[start:])
			wantW = append(wantW, ws...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, n}, {0, 0}, {n, n}, {0, 1}, {127, 129}, {128, 256}, {130, 140}, {1, n - 1}, {1920, n}, {1999, n}} {
			for _, withWeights := range []bool{false, true} {
				next, pieces := r[0], 0
				err := g.ForEachEndpointBlock(r[0], r[1], withWeights, func(start int, src, dst []int32, ws []float64) error {
					pieces++
					if start != next || len(src) == 0 || len(dst) != len(src) {
						t.Fatalf("%s %v: piece at %d of %d/%d indices, want one at %d", name, r, start, len(src), len(dst), next)
					}
					if g.BlockBacked() && len(src) > blockEdges {
						t.Fatalf("%s %v: a piece of %d edges from %d-edge blocks", name, r, len(src), blockEdges)
					}
					if wantWs := withWeights && g.Weighted(); (ws != nil) != wantWs || (wantWs && len(ws) != len(src)) {
						t.Fatalf("%s %v: %d weights for %d edges, weights wanted: %t", name, r, len(ws), len(src), wantWs)
					}
					for j := range src {
						if src[j] != wantSrc[start+j] || dst[j] != wantDst[start+j] || (ws != nil && ws[j] != wantW[start+j]) {
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
		}
		if s1, _ := g.EdgeEndpointIndices(); !g.BlockBacked() {
			_ = g.ForEachEndpointBlock(10, 20, false, func(_ int, src, _ []int32, _ []float64) error {
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
// over one file-backed weighted store whose first blocks carry no weight
// sidecar (sealed before the weight promotion) and one whose sidecar was
// omitted as all ones. Every result must equal the serial read: readers
// share the pool and the store's all-ones slice with nothing ordering them.
func TestConcurrentFileBackedReads(t *testing.T) {
	const blockEdges, n = 128, 128*12 + 50
	edges := randEdges(n, 400, 31)
	weights := randWeights(n, 32)
	for i := 0; i < 3*blockEdges; i++ {
		weights[i] = 1 // appended unweighted below
	}
	for i := 6 * blockEdges; i < 7*blockEdges; i++ {
		weights[i] = 1 // an all-ones sidecar is omitted
	}
	bb := NewBlockBuilder(blockEdges)
	bb.Append(edges[:3*blockEdges], nil)
	bb.Append(edges[3*blockEdges:], weights[3*blockEdges:])
	fb, _ := fileBackedCopy(t, bb.Finish())
	var bare int
	for _, r := range fb.refs {
		if r.wencLen == 0 {
			bare++
		}
	}
	if bare != 4 {
		t.Fatalf("%d blocks without a sidecar, want 4", bare)
	}
	g := FromBlocks(fb)
	twin, err := FromWeightedEdges(edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	wantSrc, wantDst := twin.EdgeEndpointIndices()

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
					es, ws := g.EdgeRange(lo, hi)
					if !slices.Equal(es, edges[lo:hi]) || !slices.Equal(ws, weights[lo:hi]) {
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
					if err := g.ForEachEdgeBlock(func(start int, es []Edge, ws []float64) error {
						if start != next || !slices.Equal(es, edges[start:start+len(es)]) || !slices.Equal(ws, weights[start:start+len(es)]) {
							t.Errorf("worker %d: ForEachEdgeBlock block at %d differs from the serial read", w, start)
						}
						next += len(es)
						return nil
					}); err != nil || next != n {
						t.Errorf("worker %d: ForEachEdgeBlock scanned %d edges: %v", w, next, err)
					}
				default:
					withWeights := it%2 == 0
					if err := g.ForEachEndpointBlock(lo, hi, withWeights, func(start int, src, dst []int32, ws []float64) error {
						end := start + len(src)
						if !slices.Equal(src, wantSrc[start:end]) || !slices.Equal(dst, wantDst[start:end]) ||
							(withWeights && !slices.Equal(ws, weights[start:end])) || (!withWeights && ws != nil) {
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
	dense, err := FromWeightedEdges(randEdges(400, 50, 19), randWeights(400, 20))
	if err != nil {
		t.Fatal(err)
	}
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
			buf.WriteString("7\t8\t2.5\n") // weighted tail line
		} else {
			buf.WriteString("1\t2\n")
		}
	}
	var total int
	var batches int
	var lastW []float64
	err := StreamEdgeList(bytes.NewReader(buf.Bytes()), func(edges []Edge, weights []float64) error {
		batches++
		total += len(edges)
		lastW = weights
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != n || batches != 2 {
		t.Fatalf("streamed %d edges in %d batches, want %d in 2", total, batches, n)
	}
	if lastW == nil || lastW[len(lastW)-1] != 2.5 {
		t.Fatalf("final batch weights = %v, want tail weight 2.5", lastW)
	}
	// Pre-promotion lines inside the weighted batch weigh 1.
	if lastW[0] != 1 {
		t.Fatalf("backfilled weight = %g, want 1", lastW[0])
	}
}
