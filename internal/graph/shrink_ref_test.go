package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// resolveRetractionsRef is the resolver before the bit filter — one map
// probe per dense edge — kept as the oracle for resolveRetractions.
func (g *Graph) resolveRetractionsRef(retract []Edge) ([]int, error) {
	if len(retract) == 0 {
		return nil, nil
	}
	want := make(map[Edge]int, len(retract))
	for _, e := range retract {
		want[e]++
	}
	idx := make([]int, 0, len(retract))
	seen := make(map[Edge]bool, len(want))
	g.mustEdgeBlocks(func(start int, edges []Edge) {
		for i, e := range edges {
			n, ok := want[e]
			if !ok {
				continue
			}
			seen[e] = true
			if n > 0 && g.EdgeAlive(start+i) {
				idx = append(idx, start+i)
				want[e] = n - 1
			}
		}
	})
	for e, n := range want {
		if n > 0 && !seen[e] {
			return nil, fmt.Errorf("graph: cannot retract edge %d -> %d: not in graph", e.Src, e.Dst)
		}
	}
	return idx, nil
}

// TestResolveRetractionsAcrossRanges: one edge value repeated on both sides
// of the boundary between two scan ranges, its first occurrence already
// dead, is retracted oldest-live-first exactly as one serial pass does, on
// the dense tier and on blocks that split the list at the same boundary.
func TestResolveRetractionsAcrossRanges(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	x := Edge{Src: 7, Dst: 9}
	// Eight edges over four ranges of two: x sits at 1, 2 (the first
	// position of the second range) and 5.
	edges := []Edge{{1, 2}, x, x, {2, 3}, {3, 4}, x, {4, 5}, {5, 6}}
	dense := FromEdges(slices.Clone(edges))
	bb := NewBlockBuilder(2)
	bb.Append(edges)
	for name, g := range map[string]*Graph{"dense": dense, "block": FromBlocks(bb.Finish())} {
		sg, _, err := g.Shrink([]Edge{x})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range [][]Edge{{x}, {x, x}, {x, x, x}} {
			got, err := sg.resolveRetractions(batch)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := sg.resolveRetractionsRef(batch)
			if !slices.Equal(got, want) || got[0] != 2 {
				t.Fatalf("%s: retracting %d copies resolved %v, the serial pass %v", name, len(batch), got, want)
			}
		}
	}
}

// retractFuzzCase builds a graph and a retraction batch from fuzz inputs:
// few vertices so values repeat (multiplicity, FIFO order), a prior
// retraction so some occurrences are already dead (surplus idempotence),
// batch values drawn from the graph with duplicates, and optionally one the
// graph never held (the not-in-graph error). block selects the block tier.
func retractFuzzCase(seed int64, edgesN, batchN uint16, nv uint8, missing, block bool) (*Graph, []Edge) {
	r := rand.New(rand.NewSource(seed))
	n := 2 + int(nv)%40
	edges := randomEdges(seed+1, n, 1+int(edgesN)%3000)
	var g *Graph
	if block {
		bb := NewBlockBuilder(64)
		bb.Append(edges)
		g = FromBlocks(bb.Finish())
	} else {
		g = FromEdges(slices.Clone(edges))
	}
	// Tombstone a few occurrences first (below the compaction threshold).
	pre := make([]Edge, len(edges)/8)
	for i := range pre {
		pre[i] = edges[r.Intn(len(edges))]
	}
	if sg, _, err := g.Shrink(pre); err == nil {
		g = sg
	}
	batch := make([]Edge, int(batchN)%200)
	for i := range batch {
		batch[i] = edges[r.Intn(len(edges))]
		if i > 0 && r.Intn(4) == 0 {
			batch[i] = batch[r.Intn(i)] // duplicate within the batch
		}
	}
	if missing {
		batch = append(batch, Edge{Src: VertexID(n + 5), Dst: 0})
	}
	return g, batch
}

// FuzzResolveRetractions: the filtered resolver returns exactly what one map
// probe per edge returned — same positions in the same order, or an error in
// the same cases — on dense and block-backed graphs, with duplicate,
// surplus and missing values.
func FuzzResolveRetractions(f *testing.F) {
	f.Add(int64(1), uint16(500), uint16(20), uint8(10), false, false)
	f.Add(int64(2), uint16(2000), uint16(150), uint8(3), false, true)
	f.Add(int64(3), uint16(40), uint16(199), uint8(1), true, false)
	f.Add(int64(4), uint16(2999), uint16(1), uint8(39), true, true)
	f.Add(int64(5), uint16(0), uint16(0), uint8(0), false, false)
	f.Fuzz(func(t *testing.T, seed int64, edgesN, batchN uint16, nv uint8, missing, block bool) {
		g, batch := retractFuzzCase(seed, edgesN, batchN, nv, missing, block)
		got, gotErr := g.resolveRetractions(batch)
		want, wantErr := g.resolveRetractionsRef(batch)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("resolver error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("resolver error %q, reference %q", gotErr, wantErr)
			}
			return
		}
		if !slices.Equal(got, want) {
			t.Fatalf("resolver tombstones %v, reference %v", got, want)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("positions not ascending: %v", got)
		}
	})
}
