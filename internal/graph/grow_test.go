package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomEdges(seed int64, nv, ne int) []Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]Edge, ne)
	for i := range edges {
		edges[i] = Edge{Src: VertexID(r.Intn(nv)), Dst: VertexID(r.Intn(nv))}
	}
	return edges
}

// checkViewsEqual asserts that g's derived views match a graph built from
// scratch over the same edge list.
func checkViewsEqual(t *testing.T, g *Graph) {
	t.Helper()
	fresh := FromEdges(append([]Edge(nil), g.Edges()...))
	if !reflect.DeepEqual(g.Vertices(), fresh.Vertices()) {
		t.Fatalf("vertex list differs from fresh build")
	}
	if !reflect.DeepEqual(g.OutDegrees(), fresh.OutDegrees()) || !reflect.DeepEqual(g.InDegrees(), fresh.InDegrees()) {
		t.Fatalf("degrees differ from fresh build")
	}
	gs, gd := g.EdgeEndpointIndices()
	fs, fd := fresh.EdgeEndpointIndices()
	if !reflect.DeepEqual(gs, fs) || !reflect.DeepEqual(gd, fd) {
		t.Fatalf("endpoint indices differ from fresh build")
	}
	for _, v := range g.Vertices() {
		gi, gok := g.Index(v)
		fi, fok := fresh.Index(v)
		if gi != fi || gok != fok {
			t.Fatalf("Index(%d) = (%d,%v), fresh (%d,%v)", v, gi, gok, fi, fok)
		}
	}
}

// TestGrowSeededDegreeLookups: per-vertex degree lookups go through the
// index map, which a Grow-seeded generation has not built even though its
// degree view is seeded — regression for the nil-map silent-zero bug.
func TestGrowSeededDegreeLookups(t *testing.T) {
	g := FromEdges([]Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	g.OutDegrees() // warm parent's degree view so Grow seeds the child's
	ng, _ := g.Grow([]Edge{{Src: 2, Dst: 3}})
	if got := ng.OutDegree(0); got != 2 {
		t.Fatalf("grown OutDegree(0) = %d, want 2", got)
	}
	if got := ng.InDegree(2); got != 2 {
		t.Fatalf("grown InDegree(2) = %d, want 2", got)
	}
}

func TestGrowSeedsViewsConsistently(t *testing.T) {
	cases := []struct {
		name  string
		base  []Edge
		delta []Edge
	}{
		{"append-only-new-high-ids", randomEdges(1, 50, 300), []Edge{{Src: 60, Dst: 61}, {Src: 61, Dst: 62}}},
		{"existing-vertices-only", randomEdges(2, 50, 300), randomEdges(3, 50, 40)},
		{"interleaved-new-ids", []Edge{{Src: 2, Dst: 10}, {Src: 10, Dst: 20}}, []Edge{{Src: 5, Dst: 15}, {Src: 0, Dst: 25}}},
		{"empty-base", nil, randomEdges(4, 20, 30)},
		{"empty-delta", randomEdges(5, 30, 100), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := FromEdges(append([]Edge(nil), tc.base...))
			// Warm every seedable view so Grow exercises the seeding paths.
			g.OutDegrees()
			g.EdgeEndpointIndices()
			ng, d := g.Grow(tc.delta)
			if ng.NumEdges() != len(tc.base)+len(tc.delta) {
				t.Fatalf("grown edge count %d, want %d", ng.NumEdges(), len(tc.base)+len(tc.delta))
			}
			if d.Old != g || d.New != ng || d.OldLen != len(tc.base) {
				t.Fatalf("delta bookkeeping wrong: %+v", d)
			}
			if len(tc.delta) == 0 {
				// An empty suffix is a no-op: no fresh generation — the
				// parent itself comes back.
				if ng != g {
					t.Fatalf("empty suffix minted a new generation: %+v", d)
				}
			} else if ng == g {
				t.Fatal("a non-empty suffix returned the parent")
			}
			checkViewsEqual(t, ng)
			// The parent must be untouched.
			if g.NumEdges() != len(tc.base) {
				t.Fatalf("parent mutated: %d edges", g.NumEdges())
			}
			checkViewsEqual(t, g)
		})
	}
}

func TestGrowColdParentViews(t *testing.T) {
	// Grow on a parent whose degree/endpoint views were never built must
	// leave them lazy on the child — and they must still come out right.
	g := FromEdges(randomEdges(6, 40, 200))
	ng, _ := g.Grow(randomEdges(7, 50, 30))
	checkViewsEqual(t, ng)
}

// TestStepFromResolvesTheBatch: a generation carries its step's endpoint
// indices — the suffix's always, the retracted edges' when the step patched
// degree tables — equal to searching its own vertex list, and hands them only
// to its direct parent as it was then.
func TestStepFromResolvesTheBatch(t *testing.T) {
	check := func(name string, parent, ng *Graph) {
		t.Helper()
		st := ng.StepFrom(parent)
		if st == nil {
			t.Fatalf("%s: no step from the direct parent", name)
		}
		oldLen := parent.NumEdges()
		src, dst := ng.EdgeEndpointIndices()
		if !reflect.DeepEqual(st.SufSrc, src[oldLen:]) || !reflect.DeepEqual(st.SufDst, dst[oldLen:]) {
			t.Fatalf("%s: suffix indices differ from the endpoint view", name)
		}
		if st.RemSrc == nil {
			return
		}
		k := 0
		for i := 0; i < oldLen; i++ {
			if parent.EdgeAlive(i) && !ng.EdgeAlive(i) {
				if st.RemSrc[k] != src[i] || st.RemDst[k] != dst[i] {
					t.Fatalf("%s: retracted edge %d resolved to (%d,%d), want (%d,%d)", name, i, st.RemSrc[k], st.RemDst[k], src[i], dst[i])
				}
				k++
			}
		}
		if k != len(st.RemSrc) {
			t.Fatalf("%s: %d retracted edges resolved, %d retracted", name, len(st.RemSrc), k)
		}
	}
	g := FromEdges(randomEdges(8, 40, 300))
	// Interleaved new IDs shift old indices, and new high ones append.
	grown, _ := g.Grow([]Edge{{Src: 5, Dst: 1000}, {Src: 7, Dst: 3}, {Src: 999, Dst: 998}, {Src: 41, Dst: 5}})
	check("append", g, grown)

	grown.OutDegrees() // the next step patches degree tables, so resolves its retractions
	edges := grown.Edges()
	shrunk, _, err := grown.Shrink([]Edge{edges[3], edges[301], edges[120]})
	if err != nil {
		t.Fatal(err)
	}
	check("shrink", grown, shrunk)
	slid, _ := grown.SlideWindow([]Edge{{Src: 3, Dst: 2000}, {Src: 2, Dst: 6}}, 10)
	check("slide", grown, slid)
	if shrunk.StepFrom(grown).RemSrc == nil || len(slid.StepFrom(grown).RemSrc) != 10 {
		t.Fatal("a step that patched degree tables left its retractions unresolved")
	}
	cold, _, err := g.Shrink([]Edge{edges[3]})
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.StepFrom(g); st == nil || st.RemSrc != nil {
		t.Fatal("a step over unbuilt degree tables should carry its suffix only")
	}

	if shrunk.StepFrom(g) != nil {
		t.Fatal("a grandparent got the last step's indices")
	}
	if g.StepFrom(nil) != nil || FromEdges(edges).StepFrom(grown) != nil {
		t.Fatal("a graph no step minted carries a step")
	}
}

func TestRemapVertices(t *testing.T) {
	g := FromEdges([]Edge{{Src: 2, Dst: 10}, {Src: 10, Dst: 20}})
	oldVerts := g.Vertices()

	// Identity: appended IDs sort after the old maximum.
	ng, _ := g.Grow([]Edge{{Src: 30, Dst: 40}})
	remap, err := RemapVertices(oldVerts, ng)
	if err != nil || remap != nil {
		t.Fatalf("want identity remap, got %v, %v", remap, err)
	}

	// Shifted: an interleaving ID moves later dense indices up.
	ng2, _ := g.Grow([]Edge{{Src: 5, Dst: 10}})
	remap, err = RemapVertices(oldVerts, ng2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 2, 3} // 2->0, 10->2, 20->3 (5 took index 1)
	if !reflect.DeepEqual(remap, want) {
		t.Fatalf("remap = %v, want %v", remap, want)
	}

	// A vertex missing from the target is an error.
	if _, err := RemapVertices([]VertexID{2, 3}, ng); err == nil {
		t.Fatal("missing vertex should error")
	}
}
