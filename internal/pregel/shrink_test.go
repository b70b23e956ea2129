package pregel

import (
	"math/rand"
	"reflect"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
)

// retractBatch picks up to n distinct live edge positions of g at random
// and returns their edge values — a retraction batch for Graph.Shrink.
func retractBatch(r *rand.Rand, g *graph.Graph, n int) []graph.Edge {
	live := make([]int, 0, g.NumLiveEdges())
	for i := 0; i < g.NumEdges(); i++ {
		if g.EdgeAlive(i) {
			live = append(live, i)
		}
	}
	r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if n > len(live) {
		n = len(live)
	}
	edges := g.Edges()
	out := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		out[i] = edges[live[i]]
	}
	return out
}

// TestApplyDeltaShrinkMatchesFullBuild chains several random retraction
// batches through Shrink → Extend → ApplyDelta and proves each patched
// topology — and its derived metrics — is bit-for-bit identical to a
// from-scratch build of the shrunk graph.
func TestApplyDeltaShrinkMatchesFullBuild(t *testing.T) {
	strategies := append(partition.Extended(), partition.Hybrid(8))
	for _, s := range strategies {
		for _, numParts := range []int{1, 7, 32} {
			t.Run(s.Name(), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(numParts)))
				g := graph.FromEdges(deltaEdges(11, 60, 900))
				a, err := partition.Assign(g, s, numParts)
				if err != nil {
					t.Fatal(err)
				}
				pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 4})
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 5; step++ {
					batch := retractBatch(r, g, 30)
					ng, d, err := g.Shrink(batch)
					if err != nil {
						t.Fatal(err)
					}
					if d.Compacted {
						t.Fatalf("step %d: unexpected compaction (%d dead of %d)", step, ng.NumDeadEdges(), ng.NumEdges())
					}
					na, err := a.Extend(ng, s)
					if err != nil {
						t.Fatal(err)
					}
					remap, err := graph.RemapVertices(d.OldVerts, ng)
					if err != nil {
						t.Fatal(err)
					}
					// Odd steps index the parent first: partitions the step
					// retracted nothing from carry it.
					patched := deltaStep(t, pg, na, remap, step%2 == 1)
					rebuilt, err := NewPartitionedGraphFromAssignment(na, BuildOptions{Parallelism: 4})
					if err != nil {
						t.Fatal(err)
					}
					if err := checkEquivalent(rebuilt, patched); err != nil {
						t.Fatalf("%s parts=%d step %d: %v", s.Name(), numParts, step, err)
					}
					want, err := metrics.FromAssignment(na)
					if err != nil {
						t.Fatal(err)
					}
					if got := patched.Metrics(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s parts=%d step %d: topology metrics diverge from assignment metrics", s.Name(), numParts, step)
					}
					g, a, pg = ng, na, patched
				}
			})
		}
	}
}

// TestApplyDeltaShrinkDropsOrphanMirrors: retracting a vertex's only edge
// must drop its mirrors from the patched topology, exactly as the rebuild
// does (the vertex itself stays in the graph until compaction).
func TestApplyDeltaShrinkDropsOrphanMirrors(t *testing.T) {
	lone := graph.Edge{Src: 999, Dst: 3}
	base := append(deltaEdges(12, 40, 200), lone)
	g := graph.FromEdges(append([]graph.Edge(nil), base...))
	s := partition.EdgePartition2D()
	a, err := partition.Assign(g, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ng, d, err := g.Shrink([]graph.Edge{lone})
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.Extend(ng, s)
	if err != nil {
		t.Fatal(err)
	}
	remap, err := graph.RemapVertices(d.OldVerts, ng)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := pg.ApplyDelta(na, remap)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewPartitionedGraphFromAssignment(na, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEquivalent(rebuilt, patched); err != nil {
		t.Fatal(err)
	}
	idx, ok := ng.Index(999)
	if !ok {
		t.Fatal("vertex 999 left the graph before compaction")
	}
	if m := patched.ReplicaCounts()[idx]; m != 0 {
		t.Fatalf("orphaned vertex 999 still has %d mirrors", m)
	}
}

// TestApplyDeltaSlideWindowMatchesFullBuild: one generation step that both
// appends a suffix and expires the oldest live prefix must patch to exactly
// the rebuilt topology — with the parent indexed, partitions the expiry
// missed carry their index and the others rebuild it lazily (deltaStep
// checks which is which).
func TestApplyDeltaSlideWindowMatchesFullBuild(t *testing.T) {
	strategies := append(partition.Extended(), partition.Hybrid(8))
	base := deltaEdges(13, 60, 600)
	suffix := deltaEdges(14, 90, 80)
	for _, s := range strategies {
		t.Run(s.Name(), func(t *testing.T) {
			for _, expire := range []int{6, 120} {
				for _, indexed := range []bool{false, true} {
					g := graph.FromEdges(append([]graph.Edge(nil), base...))
					a, err := partition.Assign(g, s, 16)
					if err != nil {
						t.Fatal(err)
					}
					pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 4})
					if err != nil {
						t.Fatal(err)
					}
					ng, d, err := g.SlideWindow(append([]graph.Edge(nil), suffix...), nil, expire)
					if err != nil {
						t.Fatal(err)
					}
					if d.Compacted {
						t.Fatal("unexpected compaction")
					}
					na, err := a.Extend(ng, s)
					if err != nil {
						t.Fatal(err)
					}
					remap, err := graph.RemapVertices(d.OldVerts, ng)
					if err != nil {
						t.Fatal(err)
					}
					patched := deltaStep(t, pg, na, remap, indexed)
					rebuilt, err := NewPartitionedGraphFromAssignment(na, BuildOptions{Parallelism: 4})
					if err != nil {
						t.Fatal(err)
					}
					if err := checkEquivalent(rebuilt, patched); err != nil {
						t.Fatalf("%s expire=%d indexed=%v: %v", s.Name(), expire, indexed, err)
					}
				}
			}
		})
	}
}

// FuzzApplyShrink drives random (base, retraction, suffix, strategy, parts)
// tuples through the shrink/slide delta path and cross-checks against the
// full rebuild. Compacted generations sever the delta chain by contract;
// for those the fuzzer only proves the rebuild still works. Run long via
// `make fuzz`; the seed corpus runs on every `go test`.
func FuzzApplyShrink(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(30), uint16(0), uint8(8), uint8(0))
	f.Add(int64(2), uint16(1), uint16(1), uint16(1), uint8(1), uint8(1))
	f.Add(int64(3), uint16(900), uint16(400), uint16(0), uint8(33), uint8(2))
	f.Add(int64(4), uint16(500), uint16(100), uint16(200), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, baseN, retractN, sufN uint16, parts, strat uint8) {
		numParts := 1 + int(parts)%64
		strategies := append(partition.Extended(), partition.Hybrid(4))
		s := strategies[int(strat)%len(strategies)]
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(120)
		base := deltaEdges(seed+1, nv, 1+int(baseN)%1000)
		g := graph.FromEdges(append([]graph.Edge(nil), base...))
		a, err := partition.Assign(g, s, numParts)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 1 + r.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		var ng *graph.Graph
		var d graph.Delta
		if n := int(sufN) % 300; n > 0 {
			suffix := make([]graph.Edge, n)
			for i := range suffix {
				suffix[i] = graph.Edge{
					Src: graph.VertexID(r.Intn(3 * nv)),
					Dst: graph.VertexID(r.Intn(3 * nv)),
				}
			}
			ng, d, err = g.SlideWindow(suffix, nil, int(retractN)%(len(base)+1))
		} else {
			ng, d, err = g.Shrink(retractBatch(r, g, int(retractN)%(len(base)+1)))
		}
		if err != nil {
			t.Fatal(err)
		}
		if d.Compacted {
			na, err := partition.Assign(ng, s, numParts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewPartitionedGraphFromAssignment(na, BuildOptions{}); err != nil {
				t.Fatal(err)
			}
			return
		}
		if ng == g {
			return // zero-net step: the parent came back
		}
		na, err := a.Extend(ng, s)
		if err != nil {
			t.Fatal(err)
		}
		remap, err := graph.RemapVertices(d.OldVerts, ng)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := NewPartitionedGraphFromAssignment(na, BuildOptions{Parallelism: 1 + r.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		// Lazy first, then carried from the parent indexed in between.
		for _, indexed := range []bool{false, true} {
			patched := deltaStep(t, pg, na, remap, indexed)
			if err := checkEquivalent(rebuilt, patched); err != nil {
				t.Fatalf("%s parts=%d indexed=%v: %v", s.Name(), numParts, indexed, err)
			}
		}
	})
}
