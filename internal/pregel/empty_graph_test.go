package pregel

import (
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

func TestBuildEmptyGraph(t *testing.T) {
	g := graph.FromEdges(nil)
	setGOMAXPROCS(t, 3)
	pg, err := buildFrom(g, []partition.PID{}, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pg.TotalMirrors() != 0 {
		t.Fatal("expected no mirrors")
	}
}
