package algorithms

import (
	"context"
	"testing"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// countLabelsRef is the component count as the cc summary used to take it: one
// hash-set insert per vertex.
func countLabelsRef(labels []graph.VertexID) int {
	seen := make(map[graph.VertexID]struct{}, 16)
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// TestCountLabelsMatchesSet: the map-free count equals the hash-set count on
// converged runs, on runs capped at every iteration short of convergence
// (where vertices still carry labels their owners have abandoned), and on a
// generation with tombstoned edges (whose orphaned vertices stay listed as
// their own components).
func TestCountLabelsMatchesSet(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	shrunk, _, err := g.Shrink(g.Edges()[:g.NumEdges()/8])
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.NumDeadEdges() == 0 {
		t.Fatal("shrink tombstoned nothing")
	}
	for name, g := range map[string]*graph.Graph{"dense": g, "tombstoned": shrunk} {
		a, err := partition.Assign(g, partition.EdgePartition2D(), 8)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full := checkCountLabels(t, name, pg, 0)
		if !full.Converged {
			t.Fatalf("%s: uncapped cc did not converge", name)
		}
		capped := 0
		for iters := 1; iters < full.NumSupersteps(); iters++ {
			if st := checkCountLabels(t, name, pg, iters); !st.Converged {
				capped++
			}
		}
		if capped == 0 {
			t.Fatalf("%s: no iteration cap stopped cc short of convergence", name)
		}
	}
}

func checkCountLabels(t *testing.T, name string, pg *pregel.PartitionedGraph, iters int) *pregel.RunStats {
	t.Helper()
	labels, st, err := ConnectedComponents(context.Background(), pg, iters)
	if err != nil {
		t.Fatal(err)
	}
	want := countLabelsRef(labels)
	if got := countLabels(pg.G.Vertices(), labels, st.Converged); got != want {
		t.Fatalf("%s, iters %d (converged %v): countLabels = %d, hash set = %d", name, iters, st.Converged, got, want)
	}
	return st
}
