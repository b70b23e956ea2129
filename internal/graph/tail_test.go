package graph

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// sameArray reports whether two non-empty slices start at the same element.
func sameArray[T any](a, b []T) bool { return &a[0] == &b[0] }

// TestGrowExtendsTipInPlace: the first Grow of a graph copies into an array
// with spare capacity; growing the newest generation again writes only the
// suffix into that array; every generation sees exactly its own edges
// through a slice it cannot append past.
func TestGrowExtendsTipInPlace(t *testing.T) {
	base := randomEdges(1, 50, 400)
	g0 := FromEdges(slices.Clone(base))
	g0.EdgeEndpointIndices()
	batches := [][]Edge{randomEdges(2, 50, 20), randomEdges(3, 50, 20), randomEdges(4, 50, 20)}

	g1, _ := g0.Grow(batches[0])
	if sameArray(g1.Edges(), g0.Edges()) {
		t.Fatal("first Grow wrote into the parent's own array")
	}
	g2, _ := g1.Grow(batches[1])
	g3, _ := g2.Grow(batches[2])
	if !sameArray(g2.Edges(), g1.Edges()) || !sameArray(g3.Edges(), g1.Edges()) {
		t.Fatal("growing the tip copied the edge list instead of extending it in place")
	}
	s1, _ := g1.EdgeEndpointIndices()
	s3, _ := g3.EdgeEndpointIndices()
	if !sameArray(s1, s3) {
		t.Fatal("growing the tip copied the endpoint view instead of extending it in place")
	}
	want := slices.Clone(base)
	for i, g := range []*Graph{g0, g1, g2, g3} {
		if i > 0 {
			want = append(want, batches[i-1]...)
		}
		edges := g.Edges()
		if !slices.Equal(edges, want) {
			t.Fatalf("generation %d does not hold exactly its own edges", i)
		}
		if i > 0 && cap(edges) != len(edges) {
			t.Fatalf("generation %d can append into shared storage: len %d cap %d", i, len(edges), cap(edges))
		}
		checkViewsEqual(t, g)
	}
}

// TestSecondChildCopies: two children grown from one parent never share
// slots — the second loses the claim and copies — and a pure-shrink child
// competes with its parent for the same spare capacity.
func TestSecondChildCopies(t *testing.T) {
	g0 := FromEdges(randomEdges(1, 50, 400))
	g1, _ := g0.Grow(randomEdges(2, 50, 20))
	a, b := randomEdges(3, 50, 30), randomEdges(4, 50, 30)

	first, _ := g1.Grow(a)
	second, _ := g1.Grow(b)
	if !sameArray(first.Edges(), g1.Edges()) {
		t.Fatal("first child did not extend in place")
	}
	if sameArray(second.Edges(), g1.Edges()) {
		t.Fatal("second child of one parent wrote into the lineage's array")
	}
	n := g1.NumEdges()
	if !slices.Equal(first.Edges()[n:], a) || !slices.Equal(second.Edges()[n:], b) {
		t.Fatal("siblings see each other's suffix")
	}
	if !slices.Equal(first.Edges()[:n], g1.Edges()) || !slices.Equal(second.Edges()[:n], g1.Edges()) {
		t.Fatal("a child's prefix differs from its parent")
	}

	shrunk, _, err := first.Shrink(a[:3])
	if err != nil {
		t.Fatal(err)
	}
	viaShrunk, _ := shrunk.Grow(b)
	viaFirst, _ := first.Grow(a)
	if !sameArray(viaShrunk.Edges(), first.Edges()) || sameArray(viaFirst.Edges(), first.Edges()) {
		t.Fatal("a pure-shrink child and its parent must compete for one claim: first wins, second copies")
	}
	if !slices.Equal(viaFirst.Edges()[first.NumEdges():], a) || !slices.Equal(viaShrunk.Edges()[first.NumEdges():], b) {
		t.Fatal("claim race mixed up the suffixes")
	}
}

// TestConcurrentGrowOffOneLineage: goroutines growing, shrinking and
// reading generations of one lineage at once never observe a torn or
// foreign edge list (run under -race by `make race`).
func TestConcurrentGrowOffOneLineage(t *testing.T) {
	g0 := FromEdges(randomEdges(1, 80, 600))
	root, _ := g0.Grow(randomEdges(2, 80, 10))
	root.EdgeEndpointIndices()
	rootEdges := slices.Clone(root.Edges())

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, want := root, slices.Clone(rootEdges)
			for step := 0; step < 20; step++ {
				batch := randomEdges(int64(100*w+step), 80, 5+step%7)
				var err error
				if step%3 == 2 {
					g, _, err = g.Shrink(want[step : step+2])
					if err != nil {
						t.Error(err)
						return
					}
				} else {
					g, _ = g.Grow(batch)
					want = append(want, batch...)
				}
				if !slices.Equal(g.Edges(), want) {
					t.Errorf("worker %d step %d: generation holds foreign edges", w, step)
					return
				}
				src, dst := g.EdgeEndpointIndices()
				fs, fd := FromEdges(slices.Clone(want)).EdgeEndpointIndices()
				if !reflect.DeepEqual(src, fs) || !reflect.DeepEqual(dst, fd) {
					t.Errorf("worker %d step %d: endpoint view differs from a fresh build", w, step)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if !slices.Equal(root.Edges(), rootEdges) {
		t.Fatal("the shared ancestor changed under its descendants")
	}
}

// TestSharesKeyLineageStorageOnce: every generation of a lineage reports
// the shared arrays under one key and at the backing array's full size, and
// what a step leaves untouched (vertex list, tombstones) under the parent's.
func TestSharesKeyLineageStorageOnce(t *testing.T) {
	g0 := FromEdges(randomEdges(1, 50, 400))
	g1, _ := g0.Grow(randomEdges(2, 50, 20)) // IDs < 50: no new vertex
	g2, _ := g1.Grow(randomEdges(3, 50, 20))
	shrunk, _, err := g2.Shrink(g2.Edges()[:4])
	if err != nil {
		t.Fatal(err)
	}
	g3, _ := shrunk.Grow(randomEdges(4, 50, 20))

	byKey := func(g *Graph) map[any]int64 {
		m := map[any]int64{}
		for _, s := range g.Shares() {
			if _, dup := m[s.Key]; dup {
				t.Fatalf("Shares reports key %v twice", s.Key)
			}
			m[s.Key] = s.Bytes
		}
		return m
	}
	edgeKey := any(&g1.Edges()[0])
	for i, g := range []*Graph{g1, g2, shrunk, g3} {
		b, ok := byKey(g)[edgeKey]
		if !ok {
			t.Fatalf("generation %d does not report the lineage's edge array", i+1)
		}
		if want := int64(cap(g1.edgesTail.buf)) * 16; b != want {
			t.Fatalf("generation %d prices the edge array at %d, want the whole backing array %d", i+1, b, want)
		}
	}
	if _, ok := byKey(g0)[edgeKey]; ok {
		t.Fatal("the root reports the lineage array it never lived in")
	}
	if _, ok := byKey(g2)[any(&g1.Vertices()[0])]; !ok {
		t.Fatal("a step that added no vertex does not share the parent's vertex list")
	}
	if _, ok := byKey(g3)[any(&shrunk.Tombstones()[0])]; !ok {
		t.Fatal("an append step does not share the parent's tombstones")
	}
	if _, ok := byKey(g2)[any(&shrunk.Tombstones()[0])]; ok {
		t.Fatal("the parent of a shrink reports the child's tombstones")
	}
}
