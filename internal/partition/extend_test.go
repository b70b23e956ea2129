package partition

import (
	"math/rand"
	"sort"
	"testing"

	"cutfit/internal/graph"
)

// extendStrategies is every strategy exercised by the Extend equivalence
// tests: the full hash family, the three resumable streaming strategies,
// and Range (the full-reassign fallback).
func extendStrategies() []Strategy {
	return append(Extended(), Hybrid(8), Range())
}

// genEdges produces exactly ne random edges over nv vertices.
func genEdges(seed int64, nv, ne int) []graph.Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, ne)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(r.Intn(nv)), Dst: graph.VertexID(r.Intn(nv))}
	}
	return edges
}

// assertSamePIDs fails unless a and b are bit-identical assignments.
func assertSamePIDs(t *testing.T, s Strategy, a, b *Assignment) {
	t.Helper()
	if len(a.PIDs) != len(b.PIDs) {
		t.Fatalf("%s: %d vs %d PIDs", s.Name(), len(a.PIDs), len(b.PIDs))
	}
	for i := range a.PIDs {
		if a.PIDs[i] != b.PIDs[i] {
			t.Fatalf("%s: PIDs differ at edge %d: %d vs %d", s.Name(), i, a.PIDs[i], b.PIDs[i])
		}
	}
	for p := range a.EdgesPerPart {
		if a.EdgesPerPart[p] != b.EdgesPerPart[p] {
			t.Fatalf("%s: histogram differs at partition %d", s.Name(), p)
		}
	}
}

// TestExtendMatchesOneShot proves that assigning a graph in K random
// batches through Extend produces exactly the assignment a single pass
// over the full edge list would, for every strategy.
func TestExtendMatchesOneShot(t *testing.T) {
	const parts = 8
	all := genEdges(42, 150, 2500)
	for _, s := range extendStrategies() {
		for trial := 0; trial < 3; trial++ {
			r := rand.New(rand.NewSource(int64(100 + trial)))
			// Random split into 1 + up to 4 batches.
			cuts := []int{0}
			for len(cuts) < 4 {
				cuts = append(cuts, 1+r.Intn(len(all)-1))
			}
			cuts = append(cuts, len(all))
			sort.Ints(cuts)

			g := graph.FromEdges(append([]graph.Edge(nil), all[:cuts[1]]...))
			a, err := Assign(g, s, parts)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			for i := 2; i < len(cuts); i++ {
				ng, _ := g.Grow(all[cuts[i-1]:cuts[i]])
				a, err = a.Extend(ng, s)
				if err != nil {
					t.Fatalf("%s: extend batch %d: %v", s.Name(), i, err)
				}
				g = ng
			}
			full := graph.FromEdges(append([]graph.Edge(nil), all...))
			want, err := Assign(full, s, parts)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePIDs(t, s, a, want)
		}
	}
}

// TestExtendReplayFallback: a second Extend from the same base assignment
// finds its stream state already taken and must replay — still
// bit-identical.
func TestExtendReplayFallback(t *testing.T) {
	all := genEdges(8, 50, 600)
	for _, s := range []Strategy{Greedy(), HDRF(1.0), Hybrid(8)} {
		g := graph.FromEdges(append([]graph.Edge(nil), all[:400]...))
		base, err := Assign(g, s, 5)
		if err != nil {
			t.Fatal(err)
		}
		ng, _ := g.Grow(all[400:])
		first, err := base.Extend(ng, s)
		if err != nil {
			t.Fatal(err)
		}
		second, err := base.Extend(ng, s) // state gone: replay path
		if err != nil {
			t.Fatal(err)
		}
		assertSamePIDs(t, s, first, second)
	}
}

func TestExtendErrors(t *testing.T) {
	g := randomGraph(9, 30, 200)
	a, err := Assign(g, EdgePartition2D(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Strategy key mismatch.
	if _, err := a.Extend(g, SourceCut()); err == nil {
		t.Fatal("extending a 2D assignment with SC should error")
	}
	// Shrunk graph.
	small := graph.FromEdges(g.Edges()[:10])
	if _, err := a.Extend(small, EdgePartition2D()); err == nil {
		t.Fatal("extending onto a smaller graph should error")
	}
	// Unrelated graph of equal-or-larger size with a different prefix.
	other := randomGraph(10, 30, 300)
	if _, err := a.Extend(other, EdgePartition2D()); err == nil {
		t.Fatal("extending onto an unrelated edge list should error")
	}
}
