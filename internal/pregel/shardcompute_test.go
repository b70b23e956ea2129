package pregel

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/rng"
)

// i64Wire is the test-side Codec: 8-byte little-endian int64s.
type i64Wire struct{}

func (i64Wire) Size() int { return 8 }
func (i64Wire) Append(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}
func (i64Wire) Decode(p []byte) int64 { return int64(binary.LittleEndian.Uint64(p)) }

// appendPair appends one (index, value) pair — a slab's (local, value) or a
// vertex frame's (global, value); the layouts are the same.
func appendPair(slab []byte, idx int32, v int64) []byte {
	return i64Wire{}.Append(binary.LittleEndian.AppendUint32(slab, uint32(idx)), v)
}

// TestVertexFrameFanOutMatchesSlabIngest feeds the same changed masters to
// two ShardComputes on one shard topology — one through the production path
// (a vertex frame into Ingest, then Scan), one slab per partition through the
// slabRef oracle — and requires identical mirror values, frontier words,
// compute stats and reduce slabs, over supersteps whose frontier is dense,
// sparse and empty, with the shard owning every partition and every second
// one, scanning on one goroutine and on eight.
func TestVertexFrameFanOutMatchesSlabIngest(t *testing.T) {
	ctx := context.Background()
	// One changed vertex in `every`, per superstep: dense, sparse, none,
	// dense again (mirror values must have persisted through the empty one).
	frontiers := []int{2, 40, 0, 3}
	for _, seed := range []uint64{3, 11, 29} {
		g := randomGraph(seed, 300, 2500)
		nv := g.NumVertices()
		for _, numParts := range []int{1, 5} {
			pg := mustPartition(t, g, partition.RandomVertexCut(), numParts)
			for _, W := range []int{1, 2} {
				topo := shardTopologies(pg, W)[0]
				for _, policy := range []ScanPolicy{ScanDense, ScanSparse} {
					for _, scanWorkers := range []int{1, 8} {
						prog := minLabelProgram()
						prog.ScanPolicy = policy
						ref := newSlabRef(t, prog, topo, i64Wire{}, i64Wire{})
						got, err := NewShardCompute(prog, topo, i64Wire{}, i64Wire{})
						if err != nil {
							t.Fatal(err)
						}
						got.workers = scanWorkers
						r := rng.New(seed ^ uint64(numParts))
						for step, every := range frontiers {
							changed := make([]uint64, (nv+63)/64)
							masterVals := make([]int64, nv)
							for v := 0; v < nv; v++ {
								if every > 0 && r.Intn(every) == 0 {
									changed[v>>6] |= 1 << (v & 63)
									masterVals[v] = int64(r.Intn(1000)) - 500
								}
							}
							if err := got.Ingest(ctx, vertexFrame(topo, changed, masterVals, i64Wire{})); err != nil {
								t.Fatal(err)
							}
							if err := got.Scan(ctx); err != nil {
								t.Fatal(err)
							}

							ref.beginSuperstep()
							for _, p := range topo.owned {
								var slab []byte
								for l, v := range pg.Parts[p].LocalVerts {
									if changed[v>>6]>>(uint32(v)&63)&1 != 0 {
										slab = appendPair(slab, int32(l), masterVals[v])
									}
								}
								if err := ref.setMirrorsRef(p, slab); err != nil {
									t.Fatal(err)
								}
							}
							for _, p := range topo.owned {
								label := fmt.Sprintf("seed %d parts %d W %d %v scan %d step %d part %d", seed, numParts, W, policy, scanWorkers, step, p)
								if !slices.Equal(got.parts[p].fw, ref.fw[p]) {
									t.Fatalf("%s: frontier derived from the changed bitset differs from the slab's", label)
								}
								wantCS, wantSlab, wantN := ref.computeRef(p)
								if !slices.Equal(got.parts[p].vals, ref.sc.parts[p].vals) {
									t.Fatalf("%s: mirror values diverge", label)
								}
								cs, slab, n := got.Section(p)
								if cs != wantCS {
									t.Fatalf("%s: compute stats %+v, oracle %+v", label, cs, wantCS)
								}
								if n != wantN || !bytes.Equal(slab, wantSlab) {
									t.Fatalf("%s: reduce slab of %d pairs, oracle %d, or different bytes", label, n, wantN)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestIngestRejects pins the vertex frame checks — whole pairs, index range,
// strictly ascending, mirrored on this shard — and that a rejected frame, or
// one arriving after the run's context is done, writes nothing: no master
// value, no changed bit, no mirror. Every hostile body leads with a
// well-formed pair whose value would show.
func TestIngestRejects(t *testing.T) {
	ctx := context.Background()
	g := randomGraph(5, 40, 200)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 3)
	topo := shardTopologies(pg, 3)[1] // owns partition 1 only
	sc, err := NewShardCompute(minLabelProgram(), topo, i64Wire{}, i64Wire{})
	if err != nil {
		t.Fatal(err)
	}
	nv := int32(g.NumVertices())
	var here []int32 // mirrored on this shard
	absent := int32(-1)
	for v := int32(0); v < nv; v++ {
		if topo.mirrored[v>>6]>>(v&63)&1 != 0 {
			here = append(here, v)
		} else {
			absent = v
		}
	}
	if len(here) < 3 || absent < 0 {
		t.Fatalf("fixture: %d vertices mirrored on the shard, absent vertex %d", len(here), absent)
	}
	const sentinel = 424242
	lead := appendPair(nil, here[0], sentinel)
	cases := []struct {
		name  string
		frame []byte
	}{
		{"truncated pair", lead[:len(lead)-1]},
		{"one byte over", append(slices.Clone(lead), 0)},
		{"index at the end of the vertex table", appendPair(slices.Clone(lead), nv, 7)},
		{"index far out of range", appendPair(slices.Clone(lead), -1, 7)},
		{"descending", appendPair(appendPair(slices.Clone(lead), here[2], 7), here[1], 7)},
		{"vertex named twice", appendPair(appendPair(slices.Clone(lead), here[1], 7), here[1], 7)},
		{"vertex with no mirror on this shard", func() []byte {
			// Keep the frame ascending whichever side of here[0] it falls.
			if absent < here[0] {
				return appendPair(appendPair(nil, absent, 7), here[0], sentinel)
			}
			return appendPair(slices.Clone(lead), absent, 7)
		}()},
	}
	master, changed, mirrors := slices.Clone(sc.master), slices.Clone(sc.changed), slices.Clone(sc.parts[1].vals)
	unchanged := func() bool {
		return slices.Equal(sc.master, master) && slices.Equal(sc.changed, changed) && slices.Equal(sc.parts[1].vals, mirrors)
	}
	for _, tc := range cases {
		if err := sc.Ingest(ctx, tc.frame); err == nil {
			t.Errorf("%s: frame accepted", tc.name)
		}
		if !unchanged() {
			t.Fatalf("%s: a rejected frame wrote run state", tc.name)
		}
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	if err := sc.Ingest(done, lead); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ingest under a cancelled context: %v, want context.Canceled", err)
	}
	if !unchanged() {
		t.Fatal("a frame refused for a cancelled context wrote run state")
	}
	if err := sc.Ingest(ctx, lead); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(sc.master, master) || slices.Equal(sc.changed, changed) {
		t.Fatal("the well-formed lead pair alone changed nothing: the fixture cannot tell")
	}
	if err := sc.Scan(ctx); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(sc.parts[1].vals, mirrors) {
		t.Fatal("Scan pulled nothing into the mirrors from the lead pair")
	}
}

// TestScanStopsWhenCancelled: Scan hands out no partition once its context
// is done. The program cancels on the first edge any goroutine scans, so at
// most one partition per scan goroutine — the ones already started — runs to
// its end, out of sixty-four.
func TestScanStopsWhenCancelled(t *testing.T) {
	const numParts, edgesPerPart, scanWorkers = 64, 50, 4
	edges := make([]graph.Edge, numParts*edgesPerPart)
	assign := make([]partition.PID, len(edges))
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i % 97), Dst: graph.VertexID(i % 89)}
		assign[i] = partition.PID(i / edgesPerPart)
	}
	g := graph.FromEdges(edges)
	pg, err := NewPartitionedGraph(g, assign, numParts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var scanned atomic.Int64
	prog := pagerankProgram(pg)
	prog.SendMsg = func(*Triplet[float64], Emitter[float64]) {
		cancel()
		scanned.Add(1)
	}
	sc, err := NewShardCompute(prog, shardTopologies(pg, 1)[0], f64Wire{}, f64Wire{})
	if err != nil {
		t.Fatal(err)
	}
	sc.workers = scanWorkers
	if err := sc.Ingest(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := sc.Scan(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Scan under a cancelled context: %v, want context.Canceled", err)
	}
	if got := scanned.Load(); got == 0 || got > scanWorkers*edgesPerPart {
		t.Fatalf("%d edges scanned after the cancel at the first: want at most %d (one partition per goroutine) of %d",
			got, scanWorkers*edgesPerPart, len(edges))
	}
}

// scanRecord is one SendMsg call as the index test sees it.
type scanRecord struct {
	srcIdx, dstIdx int32
	srcID, dstID   graph.VertexID
}

// recordingProgram scans every edge once (superstep 1, all vertices active in
// both directions) and records what each triplet said about its endpoints.
func recordingProgram(policy ScanPolicy, dir EdgeDirection, out *[]scanRecord) Program[int64, int64] {
	return Program[int64, int64]{
		Init:  func(graph.VertexID) int64 { return 0 },
		VProg: func(_ graph.VertexID, val, _ int64) int64 { return val },
		SendMsg: func(t *Triplet[int64], _ Emitter[int64]) {
			*out = append(*out, scanRecord{t.SrcIdx, t.DstIdx, t.SrcID(), t.DstID()})
		},
		MergeMsg:        func(a, _ int64) int64 { return a },
		MaxIterations:   1,
		ActiveDirection: dir,
		ScanPolicy:      policy,
	}
}

// TestTripletIndexAddressing checks what a triplet says about its edge under
// the dense, sparse and all-edges scans of the engine and under the worker's
// sharded scan: SrcID()/DstID() are the vertex table at SrcIdx/DstIdx, and
// (SrcIdx, DstIdx) are Graph.EdgeEndpointIndices of the scanned edge — per
// partition in the order the assignment placed them.
func TestTripletIndexAddressing(t *testing.T) {
	// IDs far from their dense indices, so an index mistaken for an ID shows.
	r := rng.New(17)
	edges := make([]graph.Edge, 600)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(1000 + 7*r.Intn(90)),
			Dst: graph.VertexID(1000 + 7*r.Intn(90)),
		}
	}
	g := graph.FromEdges(edges)
	verts := g.Vertices()
	srcIdx, dstIdx := g.EdgeEndpointIndices()

	for _, numParts := range []int{1, 4} {
		pg := mustPartition(t, g, partition.RandomVertexCut(), numParts)
		pg.Parallelism = 1 // partitions scan one after another, ascending
		// want[p] is partition p's edges in scan order.
		want := make([][]scanRecord, numParts)
		for i, p := range pg.AssignOrder() {
			want[p] = append(want[p], scanRecord{srcIdx[i], dstIdx[i], edges[i].Src, edges[i].Dst})
		}
		check := func(name string, got []scanRecord) {
			t.Helper()
			for _, rec := range got {
				if rec.srcID != verts[rec.srcIdx] || rec.dstID != verts[rec.dstIdx] {
					t.Fatalf("%s: triplet IDs (%d,%d) are not verts[(%d,%d)]", name, rec.srcID, rec.dstID, rec.srcIdx, rec.dstIdx)
				}
			}
			if !slices.Equal(got, slices.Concat(want...)) {
				t.Fatalf("%s, %d parts: scanned edges differ from EdgeEndpointIndices in assignment order", name, numParts)
			}
		}

		scans := []struct {
			name   string
			policy ScanPolicy
			dir    EdgeDirection
		}{
			{"dense", ScanDense, Either},
			{"sparse", ScanSparse, Either},
			{"all-edges", ScanAuto, AllEdges},
		}
		for _, s := range scans {
			var got []scanRecord
			if _, _, err := Run(context.Background(), pg, recordingProgram(s.policy, s.dir, &got)); err != nil {
				t.Fatal(err)
			}
			check(s.name, got)

			// The worker's scan: every mirror installed from a vertex frame,
			// then one goroutine scanning the partitions ascending.
			got = got[:0]
			sc, err := NewShardCompute(recordingProgram(s.policy, s.dir, &got), shardTopologies(pg, 1)[0], i64Wire{}, i64Wire{})
			if err != nil {
				t.Fatal(err)
			}
			sc.workers = 1
			var frame []byte
			for v := range verts {
				frame = appendPair(frame, int32(v), 0)
			}
			if err := sc.Ingest(context.Background(), frame); err != nil {
				t.Fatal(err)
			}
			if err := sc.Scan(context.Background()); err != nil {
				t.Fatal(err)
			}
			check("sharded "+s.name, got)
		}
	}
}

// TestTopologySumOncePerTopology: the sum is computed on first use and kept —
// a topology is immutable, so nothing invalidates it — and a patched
// generation, being a new PartitionedGraph, gets its own: different from its
// base, equal to a from-scratch build of the same grown graph.
func TestTopologySumOncePerTopology(t *testing.T) {
	base := deltaEdges(1, 50, 400)
	suffix := deltaEdges(2, 60, 80)
	s := partition.RandomVertexCut()

	g := graph.FromEdges(slices.Clone(base))
	a, err := partition.Assign(g, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := pg.TopologySum()
	// Were the second call to hash again it would see this edit.
	e := &pg.Parts[0].edges[0]
	e.src, e.dst = e.dst, e.src+1
	if again := pg.TopologySum(); again != sum {
		t.Fatalf("second TopologySum re-hashed the topology: %016x then %016x", sum, again)
	}

	patched, rebuilt := buildDelta(t, s, base, suffix, 4, 1, false)
	if patched.TopologySum() == sum {
		t.Fatal("patched generation has its base's topology sum")
	}
	if patched.TopologySum() != rebuilt.TopologySum() {
		t.Fatal("patched and rebuilt topologies of one graph hash differently")
	}
	// Same tables, same sum: the key must name content, not an object.
	twin, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if twin.TopologySum() != sum {
		t.Fatal("two builds of one assignment hash differently")
	}
}
