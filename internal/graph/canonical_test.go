package graph

import (
	"reflect"
	"slices"
	"testing"
)

// canonicalEdgesRef derives the canonical-undirected-edge view the way the
// Triangle Count kernel used to on every request: two hash maps keyed by
// edge pair, over the live edges.
func canonicalEdgesRef(g *Graph) []uint64 {
	type pair struct{ a, b VertexID }
	edges := g.Edges()
	has := make(map[pair]bool, len(edges))
	for i, e := range edges {
		if g.EdgeAlive(i) {
			has[pair{e.Src, e.Dst}] = true
		}
	}
	chosen := make(map[pair]bool, len(edges))
	canon := make([]uint64, (len(edges)+63)/64)
	for i, e := range edges {
		if e.Src == e.Dst || !g.EdgeAlive(i) {
			continue
		}
		key := pair{min(e.Src, e.Dst), max(e.Src, e.Dst)}
		if chosen[key] || (e.Src > e.Dst && has[key]) {
			continue
		}
		chosen[key] = true
		canon[i>>6] |= 1 << (uint(i) & 63)
	}
	return canon
}

// symmetryPctRef is the hash-map SymmetryPct that the row-merge replaced.
func symmetryPctRef(g *Graph) float64 {
	if g.NumLiveEdges() == 0 {
		return 100
	}
	edges := g.Edges()
	set := make(map[Edge]bool, len(edges))
	for i, e := range edges {
		if g.EdgeAlive(i) {
			set[e] = true
		}
	}
	recip := 0
	for i, e := range edges {
		if g.EdgeAlive(i) && set[Edge{Src: e.Dst, Dst: e.Src}] {
			recip++
		}
	}
	return 100 * float64(recip) / float64(g.NumLiveEdges())
}

// pairCases covers how an undirected pair can occur in the edge sequence.
var pairCases = []struct {
	name  string
	edges []Edge
}{
	{"empty", nil},
	{"forward-only", []Edge{{0, 1}, {1, 2}}},
	{"reverse-only", []Edge{{1, 0}, {2, 1}}},
	{"duplicates", []Edge{{0, 1}, {0, 1}, {1, 0}, {1, 0}}},
	{"reverse-then-forward", []Edge{{1, 0}, {0, 1}, {1, 0}}},
	{"self-loops", []Edge{{0, 0}, {0, 1}, {1, 1}, {1, 0}, {0, 0}}},
	{"sparse-ids", []Edge{{1 << 40, 7}, {7, 1 << 40}, {7, 9}, {9, 7}, {9, 9}}},
	{"random-dense", randomEdges(1, 12, 300)}, // many duplicates and reciprocal pairs
	{"random-sparse", randomEdges(2, 400, 900)},
}

// checkEdgeViews compares the map-free views of g with their hash-map
// references and with the undirected projection's edge count.
func checkEdgeViews(t *testing.T, g *Graph) {
	t.Helper()
	canon := g.CanonicalEdges()
	if want := canonicalEdgesRef(g); !reflect.DeepEqual(canon, want) {
		t.Fatalf("canonical view\n got %x\nwant %x", canon, want)
	}
	if got, adj := popcount(canon), len(g.undirCSR().adj); 2*got != adj {
		t.Fatalf("%d canonical edges for %d undirected adjacency entries", got, adj)
	}
	if got, want := g.SymmetryPct(), symmetryPctRef(g); got != want {
		t.Fatalf("SymmetryPct = %v, reference %v", got, want)
	}
}

func TestEdgeViewsMatchReference(t *testing.T) {
	for _, tc := range pairCases {
		t.Run(tc.name, func(t *testing.T) {
			g := FromEdges(tc.edges)
			checkEdgeViews(t, g)
			// The same edges with every third slot tombstoned, as many as stay
			// under the compaction threshold: a dead forward edge hands the
			// pair to a live reverse one, a dead only occurrence drops it.
			var dead []int
			for i := 0; i < len(tc.edges) && compactionThreshold*(len(dead)+1) < len(tc.edges); i += 3 {
				dead = append(dead, i)
			}
			if len(dead) == 0 {
				return
			}
			ng, d := g.advance(nil, dead)
			if d.Compacted || ng.NumDeadEdges() != len(dead) {
				t.Fatalf("want %d tombstones, got %d (compacted=%v)", len(dead), ng.NumDeadEdges(), d.Compacted)
			}
			checkEdgeViews(t, ng)
			for _, i := range dead {
				if ng.CanonicalEdges()[i>>6]&(1<<(uint(i)&63)) != 0 {
					t.Fatalf("tombstoned slot %d is canonical", i)
				}
			}
		})
	}
}

// TestEdgeViewsAcrossGenerations: the views of a grown, shrunk or slid
// generation — derived while the parent's are already cached — equal those
// of a graph built from scratch with the same edges and tombstones, and the
// parent's stay what they were.
func TestEdgeViewsAcrossGenerations(t *testing.T) {
	g := FromEdges(randomEdges(3, 40, 600))
	parentCanon := append([]uint64(nil), g.CanonicalEdges()...)
	parentSym := g.SymmetryPct()

	fromScratch := func(ng *Graph) *Graph {
		return &Graph{
			edges:   slices.Clone(ng.Edges()),
			dead:    slices.Clone(ng.Tombstones()),
			numDead: ng.NumDeadEdges(),
		}
	}
	check := func(name string, ng *Graph) {
		t.Helper()
		if ng == g {
			t.Fatalf("%s minted no generation", name)
		}
		fresh := fromScratch(ng)
		if !reflect.DeepEqual(ng.CanonicalEdges(), fresh.CanonicalEdges()) {
			t.Fatalf("%s: canonical view differs from a from-scratch build", name)
		}
		if ng.SymmetryPct() != fresh.SymmetryPct() {
			t.Fatalf("%s: SymmetryPct %v, from scratch %v", name, ng.SymmetryPct(), fresh.SymmetryPct())
		}
		checkEdgeViews(t, ng)
	}

	grown, _ := g.Grow(randomEdges(4, 55, 120)) // new vertices shift nothing, new pairs and duplicates
	check("grow", grown)
	shrunk, _, err := g.Shrink(g.Edges()[:90]) // retracts first occurrences: canonical bits move
	if err != nil {
		t.Fatal(err)
	}
	check("shrink", shrunk)
	slid, _ := shrunk.SlideWindow(randomEdges(5, 40, 60), 20)
	check("slide", slid)

	if !reflect.DeepEqual(g.CanonicalEdges(), parentCanon) || g.SymmetryPct() != parentSym {
		t.Fatal("deriving generations changed the parent's views")
	}

	// A graph restored with tombstones builds both views over its live edges.
	m, err := FromEdgesAndVertices(EncodeEdges(nil, []Edge{{0, 1}, {1, 2}, {1, 0}}), []VertexID{0, 1, 2}, []uint64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkEdgeViews(t, m)
}

// TestCanonicalEdgesStreamsBlocks: on a block-backed graph the view equals
// the dense graph's and is built without materializing the edge list.
func TestCanonicalEdgesStreamsBlocks(t *testing.T) {
	edges := randomEdges(6, 60, 1500)
	dense := FromEdges(edges)
	blocked := FromBlocks(buildBlocks(t, edges, 64))
	if !reflect.DeepEqual(blocked.CanonicalEdges(), dense.CanonicalEdges()) {
		t.Fatal("block-backed canonical view differs from the dense graph's")
	}
	if blocked.SymmetryPct() != dense.SymmetryPct() {
		t.Fatalf("block-backed SymmetryPct %v, dense %v", blocked.SymmetryPct(), dense.SymmetryPct())
	}
	if blocked.denseOnce.built() {
		t.Fatal("building the views densified the block-backed graph")
	}
}
