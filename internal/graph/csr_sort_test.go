package graph_test

import (
	"slices"
	"sort"
	"testing"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
)

// neighborRowsRef builds the three adjacency views row by row from the
// edge list and sorts each row with sort.Slice, as buildCSR did before it
// moved to slices.Sort: out and in rows keep duplicates and self loops, the
// undirected rows drop both.
func neighborRowsRef(t *testing.T, g *graph.Graph) (out, in, undir [][]int32) {
	t.Helper()
	n := g.NumVertices()
	out, in, undir = make([][]int32, n), make([][]int32, n), make([][]int32, n)
	for _, e := range g.Edges() {
		s, ok1 := g.Index(e.Src)
		d, ok2 := g.Index(e.Dst)
		if !ok1 || !ok2 {
			t.Fatalf("edge %v has an unindexed endpoint", e)
		}
		out[s] = append(out[s], d)
		in[d] = append(in[d], s)
		if s != d {
			undir[s] = append(undir[s], d)
			undir[d] = append(undir[d], s)
		}
	}
	for _, rows := range [][][]int32{out, in, undir} {
		for _, row := range rows {
			sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		}
	}
	for i, row := range undir {
		undir[i] = slices.Compact(row)
	}
	return out, in, undir
}

// TestCSRRowsMatchReferenceSort: every row of the out, in and undirected
// CSR is element for element what the per-row sort.Slice produced.
func TestCSRRowsMatchReferenceSort(t *testing.T) {
	rmat, err := gen.RMAT(gen.DefaultRMAT(12, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.Road(gen.RoadConfig{Rows: 40, Cols: 50, EdgeProb: 0.4, DiagProb: 0.05, Fragments: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	multi := graph.FromEdges([]graph.Edge{
		{Src: 7, Dst: 3}, {Src: 7, Dst: 3}, {Src: 3, Dst: 7}, {Src: 7, Dst: 7}, {Src: 7, Dst: 7},
		{Src: 3, Dst: 90}, {Src: 90, Dst: 3}, {Src: 3, Dst: 90}, {Src: 12, Dst: 7}, {Src: 7, Dst: 12},
		{Src: 90, Dst: 12}, {Src: 90, Dst: 12}, {Src: 90, Dst: 12}, {Src: 5, Dst: 5},
	})
	for name, g := range map[string]*graph.Graph{"rmat": rmat, "road": road, "multigraph": multi} {
		out, in, undir := neighborRowsRef(t, g)
		for i := int32(0); i < int32(g.NumVertices()); i++ {
			if !slices.Equal(g.OutNeighbors(i), out[i]) {
				t.Fatalf("%s: out row %d = %v, reference %v", name, i, g.OutNeighbors(i), out[i])
			}
			if !slices.Equal(g.InNeighbors(i), in[i]) {
				t.Fatalf("%s: in row %d = %v, reference %v", name, i, g.InNeighbors(i), in[i])
			}
			if !slices.Equal(g.UndirectedNeighbors(i), undir[i]) {
				t.Fatalf("%s: undirected row %d = %v, reference %v", name, i, g.UndirectedNeighbors(i), undir[i])
			}
		}
	}
}
