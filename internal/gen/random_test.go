package gen

import "testing"

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(100, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 500 {
		t.Fatalf("edges = %d, want 500", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.Src == e.Dst {
			t.Fatal("self loop in Erdos-Renyi output")
		}
		if e.Src < 0 || e.Src >= 100 || e.Dst < 0 || e.Dst >= 100 {
			t.Fatalf("edge %v out of vertex space", e)
		}
	}
}

func TestErdosRenyiErrors(t *testing.T) {
	if _, err := ErdosRenyi(1, 5, 1); err == nil {
		t.Error("n < 2 should error")
	}
	if _, err := ErdosRenyi(5, -1, 1); err == nil {
		t.Error("negative m should error")
	}
}

func TestErdosRenyiDegreeHomogeneous(t *testing.T) {
	g, err := ErdosRenyi(200, 4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	var maxDeg int32
	for _, d := range g.OutDegrees() {
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(maxDeg) > 3*mean {
		t.Fatalf("max out-degree %d too skewed for ER (mean %.1f)", maxDeg, mean)
	}
}
