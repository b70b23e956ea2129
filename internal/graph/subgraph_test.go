package graph

import "testing"

func TestDegreeStats(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {0, 2}, {0, 3}, {1, 0}})
	st := g.Degrees()
	if st.MaxOut != 3 || st.MaxIn != 1 {
		t.Fatalf("max out=%d in=%d", st.MaxOut, st.MaxIn)
	}
	if st.MeanOut != 1 || st.MeanIn != 1 {
		t.Fatalf("mean out=%g in=%g", st.MeanOut, st.MeanIn)
	}
	if st.ZeroOut != 2 { // vertices 2 and 3
		t.Fatalf("zeroOut = %d, want 2", st.ZeroOut)
	}
	if st.ZeroIn != 0 {
		t.Fatalf("zeroIn = %d, want 0", st.ZeroIn)
	}
	if len(st.UndirectedDegrees) != 4 {
		t.Fatalf("undirected degrees = %d entries", len(st.UndirectedDegrees))
	}
	i0, _ := g.Index(0)
	if st.UndirectedDegrees[i0] != 3 {
		t.Fatalf("undirected degree of 0 = %d, want 3", st.UndirectedDegrees[i0])
	}
}

func TestDegreeStatsEmpty(t *testing.T) {
	st := FromEdges(nil).Degrees()
	if st.MeanOut != 0 || st.MaxOut != 0 {
		t.Fatal("empty graph degree stats should be zero")
	}
}
