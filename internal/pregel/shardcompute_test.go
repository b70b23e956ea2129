package pregel

import (
	"context"
	"encoding/binary"
	"slices"
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

// appendPair appends one (local, value) pair of a slab.
func appendPair(slab []byte, local int32, v int64) []byte {
	return i64Wire{}.Append(binary.LittleEndian.AppendUint32(slab, uint32(local)), v)
}

// TestBulkMirrorsAndMessagesMatchPerPair feeds the same mirror updates to two
// ShardComputes — one pair at a time through the per-pair oracle, one slab at
// a time through SetMirrors — and requires identical mirror values, frontier
// words, popcounts, compute stats and, through AppendMessages against
// messagesRef, identical reduce pairs. Slabs are ascending (what the
// coordinator sends), shuffled, and shuffled with every pair doubled: the
// frontier popcount must stay exact in any order.
func TestBulkMirrorsAndMessagesMatchPerPair(t *testing.T) {
	orders := []string{"ascending", "shuffled", "doubled"}
	for _, seed := range []uint64{3, 11, 29} {
		g := randomGraph(seed, 300, 2500)
		for _, numParts := range []int{1, 5} {
			pg := mustPartition(t, g, partition.RandomVertexCut(), numParts)
			for _, policy := range []ScanPolicy{ScanDense, ScanSparse} {
				prog := minLabelProgram()
				prog.ScanPolicy = policy
				for _, order := range orders {
					ref, err := NewShardCompute(prog, g.Vertices(), pg.Parts)
					if err != nil {
						t.Fatal(err)
					}
					bulk, err := NewShardCompute(prog, g.Vertices(), pg.Parts)
					if err != nil {
						t.Fatal(err)
					}
					r := rng.New(seed ^ uint64(numParts))
					for step := 0; step < 3; step++ {
						ref.BeginSuperstep()
						bulk.BeginSuperstep()
						for p, part := range pg.Parts {
							// A third of the partition's mirrors change, fewer each round.
							var locals []int32
							for l := range part.LocalVerts {
								if r.Intn(3+4*step) == 0 {
									locals = append(locals, int32(l))
								}
							}
							if order != "ascending" {
								for i := len(locals) - 1; i > 0; i-- {
									j := r.Intn(i + 1)
									locals[i], locals[j] = locals[j], locals[i]
								}
							}
							if order == "doubled" {
								locals = append(locals, locals...)
							}
							var slab []byte
							for _, l := range locals {
								v := int64(r.Intn(1000)) - 500
								slab = appendPair(slab, l, v)
								if err := ref.setMirrorRef(p, l, v); err != nil {
									t.Fatal(err)
								}
							}
							if err := bulk.SetMirrors(p, slab, i64Wire{}); err != nil {
								t.Fatal(err)
							}
						}
						for p := range pg.Parts {
							a, b := &ref.parts[p], &bulk.parts[p]
							if !slices.Equal(a.vals, b.vals) || !slices.Equal(a.fw, b.fw) || a.act != b.act {
								t.Fatalf("seed %d parts %d %s step %d part %d: mirror state diverges (act %d vs %d)",
									seed, numParts, order, step, p, a.act, b.act)
							}
							csRef, err := ref.Compute(p)
							if err != nil {
								t.Fatal(err)
							}
							csBulk, err := bulk.Compute(p)
							if err != nil {
								t.Fatal(err)
							}
							if csRef != csBulk {
								t.Fatalf("part %d: compute stats %+v vs %+v", p, csRef, csBulk)
							}
							var want []byte
							nWant := 0
							ref.messagesRef(p, func(local int32, m int64) {
								want = appendPair(want, local, m)
								nWant++
							})
							got, n := bulk.AppendMessages(p, []byte("prefix"), i64Wire{})
							if n != nWant || string(got) != "prefix"+string(want) {
								t.Fatalf("part %d: AppendMessages wrote %d pairs, oracle %d, or different bytes", p, n, nWant)
							}
						}
					}
				}
			}
		}
	}
}

// TestSetMirrorsRejects pins the slab checks: ownership, pair alignment,
// local range, and one slab per partition per superstep.
func TestSetMirrorsRejects(t *testing.T) {
	g := randomGraph(5, 40, 200)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 3)
	parts := slices.Clone(pg.Parts)
	parts[1] = nil // owned by another worker
	sc, err := NewShardCompute(minLabelProgram(), g.Vertices(), parts)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(len(pg.Parts[0].LocalVerts))
	good := appendPair(nil, 0, 7)
	cases := []struct {
		name string
		p    int
		slab []byte
	}{
		{"unowned partition", 1, good},
		{"partition below range", -1, good},
		{"partition above range", 3, good},
		{"truncated pair", 0, good[:len(good)-1]},
		{"one byte over", 0, append(slices.Clone(good), 0)},
		{"local index at the end of the table", 0, appendPair(nil, n, 7)},
		{"local index far out of range", 0, appendPair(nil, -1, 7)},
	}
	for _, tc := range cases {
		sc.BeginSuperstep()
		if err := sc.SetMirrors(tc.p, tc.slab, i64Wire{}); err == nil {
			t.Errorf("%s: slab accepted", tc.name)
		}
	}
	sc.BeginSuperstep()
	if err := sc.SetMirrors(0, good, i64Wire{}); err != nil {
		t.Fatal(err)
	}
	if err := sc.SetMirrors(0, good, i64Wire{}); err == nil {
		t.Error("second slab for one partition in one superstep accepted")
	}
	if _, err := sc.Compute(1); err == nil {
		t.Error("Compute on an unowned partition succeeded")
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

			// The worker's scan: every mirror installed from a slab, then
			// Compute partition by partition.
			got = got[:0]
			sc, err := NewShardCompute(recordingProgram(s.policy, s.dir, &got), verts, pg.Parts)
			if err != nil {
				t.Fatal(err)
			}
			sc.BeginSuperstep()
			for p, part := range pg.Parts {
				var slab []byte
				for l := range part.LocalVerts {
					slab = appendPair(slab, int32(l), 0)
				}
				if err := sc.SetMirrors(p, slab, i64Wire{}); err != nil {
					t.Fatal(err)
				}
			}
			for p := range pg.Parts {
				if _, err := sc.Compute(p); err != nil {
					t.Fatal(err)
				}
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

	patched, rebuilt := buildDelta(t, s, base, suffix, 4, 1)
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
