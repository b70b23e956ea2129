package graph

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"cutfit/internal/rng"
)

// tri returns a 3-cycle 0->1->2->0.
func tri() *Graph {
	return FromEdges([]Edge{{0, 1}, {1, 2}, {2, 0}})
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph reports V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
}

func TestAddEdgeAndCounts(t *testing.T) {
	g := FromEdges([]Edge{{5, 9}, {9, 5}, {5, 7}})
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
}

func TestVerticesSortedUnique(t *testing.T) {
	g := FromEdges([]Edge{{10, 3}, {3, 10}, {7, 10}, {3, 3}})
	v := g.Vertices()
	want := []VertexID{3, 7, 10}
	if len(v) != len(want) {
		t.Fatalf("Vertices = %v, want %v", v, want)
	}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Vertices = %v, want %v", v, want)
		}
	}
}

func TestIndexLookup(t *testing.T) {
	g := FromEdges([]Edge{{10, 3}, {7, 10}})
	if i, ok := g.Index(7); !ok || i != 1 {
		t.Fatalf("Index(7) = %d,%v want 1,true", i, ok)
	}
	if _, ok := g.Index(99); ok {
		t.Fatal("Index(99) should not exist")
	}
}

func TestDegrees(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {0, 2}, {1, 2}, {2, 2}})
	if d := g.OutDegree(0); d != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", d)
	}
	if d := g.InDegree(2); d != 3 {
		t.Fatalf("InDegree(2) = %d, want 3", d)
	}
	if d := g.InDegree(0); d != 0 {
		t.Fatalf("InDegree(0) = %d, want 0", d)
	}
	if d := g.OutDegree(42); d != 0 {
		t.Fatalf("OutDegree(missing) = %d, want 0", d)
	}
}

func TestDegreeSumsEqualEdges(t *testing.T) {
	check := func(seed uint64) bool {
		g := randomGraph(seed, 50, 200)
		var in, out int
		for _, d := range g.InDegrees() {
			in += int(d)
		}
		for _, d := range g.OutDegrees() {
			out += int(d)
		}
		return in == g.NumEdges() && out == g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNegativeIDs(t *testing.T) {
	g := FromEdges([]Edge{{-1, 2}})
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for negative vertex ID")
	}
}

func TestOutNeighborsSorted(t *testing.T) {
	g := FromEdges([]Edge{{0, 3}, {0, 1}, {0, 2}, {1, 0}})
	i, _ := g.Index(0)
	nb := g.outCSR().neighbors(i)
	for j := 1; j < len(nb); j++ {
		if nb[j-1] > nb[j] {
			t.Fatalf("out row not sorted: %v", nb)
		}
	}
	if len(nb) != 3 {
		t.Fatalf("out row of 0 has %d entries, want 3", len(nb))
	}
}

func TestUndirectedNeighborsDedupNoLoops(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {1, 0}, {0, 1}, {0, 0}})
	i, _ := g.Index(0)
	nb := g.UndirectedNeighbors(i)
	if len(nb) != 1 {
		t.Fatalf("UndirectedNeighbors(0) = %v, want exactly [1]", nb)
	}
}

func TestStringSummary(t *testing.T) {
	if s := tri().String(); s != "Graph{V=3, E=3}" {
		t.Fatalf("String() = %q", s)
	}
}

// randomGraph builds a random directed graph for property tests.
func randomGraph(seed uint64, maxV, maxE int) *Graph {
	r := rng.New(seed)
	nv := 2 + r.Intn(maxV)
	ne := 1 + r.Intn(maxE)
	edges := make([]Edge, ne)
	for i := range edges {
		edges[i] = Edge{
			Src: VertexID(r.Intn(nv)),
			Dst: VertexID(r.Intn(nv)),
		}
	}
	return FromEdges(edges)
}

// TestConcurrentFirstUse: eight goroutines make the first call of every lazy
// view at once, each in its own order, on a dense, a sparse-ID and a
// block-backed graph; every goroutine sees exactly what a serial build on
// a twin graph produces, and the built views price the same.
func TestConcurrentFirstUse(t *testing.T) {
	edges := randEdges(3000, 400, 5)
	sparse := make([]Edge, len(edges))
	for i, e := range edges {
		sparse[i] = Edge{Src: e.Src * 1_000_003, Dst: e.Dst * 1_000_003}
	}
	graphs := map[string]func() *Graph{
		"dense":  func() *Graph { return FromEdges(slices.Clone(edges)) },
		"sparse": func() *Graph { return FromEdges(slices.Clone(sparse)) },
		"block":  func() *Graph { return FromBlocks(buildBlocks(t, edges, 256)) },
	}
	rows := func(g *Graph, nb func(int32) []int32) [][]int32 {
		out := make([][]int32, g.NumVertices())
		for i := range out {
			out[i] = slices.Clone(nb(int32(i)))
		}
		return out
	}
	views := []struct {
		name string
		get  func(g *Graph) any
	}{
		{"Vertices", func(g *Graph) any { return slices.Clone(g.Vertices()) }},
		{"Index", func(g *Graph) any {
			var out []int32
			for _, e := range edges {
				i, _ := g.Index(e.Src * 1_000_003)
				j, _ := g.Index(e.Dst)
				out = append(out, i, j)
			}
			return out
		}},
		{"OutDegrees", func(g *Graph) any { return slices.Clone(g.OutDegrees()) }},
		{"InDegrees", func(g *Graph) any { return slices.Clone(g.InDegrees()) }},
		{"EdgeEndpointIndices", func(g *Graph) any {
			src, dst := g.EdgeEndpointIndices()
			return [][]int32{slices.Clone(src), slices.Clone(dst)}
		}},
		{"outCSR", func(g *Graph) any { return rows(g, g.outCSR().neighbors) }},
		{"InNeighbors", func(g *Graph) any { return rows(g, g.InNeighbors) }},
		{"UndirectedNeighbors", func(g *Graph) any { return rows(g, g.UndirectedNeighbors) }},
		{"CanonicalEdges", func(g *Graph) any { return slices.Clone(g.CanonicalEdges()) }},
		{"SymmetryPct", func(g *Graph) any { return g.SymmetryPct() }},
		{"Fingerprint", func(g *Graph) any { return g.Fingerprint() }},
		{"CheckedFingerprint", func(g *Graph) any {
			fp, err := g.CheckedFingerprint()
			if err != nil {
				return err
			}
			return fp
		}},
		{"Shares", func(g *Graph) any { return len(g.Shares()) > 0 }},
	}
	priced := func(g *Graph) []int64 {
		var out []int64
		for _, s := range g.Shares() {
			out = append(out, s.Bytes)
		}
		slices.Sort(out)
		return out
	}
	for name, mk := range graphs {
		t.Run(name, func(t *testing.T) {
			serial := mk()
			want := make(map[string]any, len(views))
			for _, v := range views {
				want[v.name] = v.get(serial)
			}
			g := mk()
			const readers = 8
			got := make([]map[string]any, readers)
			var wg sync.WaitGroup
			for w := range readers {
				order := rng.New(uint64(w) + 1).Perm(len(views))
				got[w] = make(map[string]any, len(views))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, k := range order {
						got[w][views[k].name] = views[k].get(g)
					}
				}()
			}
			wg.Wait()
			for w := range readers {
				for _, v := range views {
					if !reflect.DeepEqual(got[w][v.name], want[v.name]) {
						t.Fatalf("reader %d: %s differs from the serial build", w, v.name)
					}
				}
			}
			if a, b := priced(g), priced(serial); !slices.Equal(a, b) {
				t.Fatalf("built views price %v, serial build %v", a, b)
			}
		})
	}
}
