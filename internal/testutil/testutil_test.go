package testutil

import (
	"fmt"
	"testing"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// testGraphs builds the three structural families the paper's datasets
// span: a uniform random graph, a skewed power-law (RMAT) graph, and a
// high-diameter road network whose IDs encode geography.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	random, err := gen.ErdosRenyi(400, 2400, 0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(9, 8, 0xBEEF))
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.Road(gen.RoadConfig{Rows: 20, Cols: 20, EdgeProb: 0.4, DiagProb: 0.05, Fragments: 6, Seed: 0xCAFE})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"random": random, "rmat": rmat, "road": road}
}

// TestInvariantsAllStrategies is the cross-strategy harness: every
// strategy (the paper's six plus the streaming and hybrid extensions) on
// every graph family at several granularities must satisfy the full
// partition invariant set.
func TestInvariantsAllStrategies(t *testing.T) {
	graphs := testGraphs(t)
	strategies := partition.Extended()
	strategies = append(strategies, partition.Hybrid(10), partition.Range())
	for name, g := range graphs {
		for _, s := range strategies {
			for _, parts := range []int{1, 7, 128} {
				t.Run(fmt.Sprintf("%s/%s/%d", name, s.Name(), parts), func(t *testing.T) {
					if err := CheckStrategy(g, s, parts); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestInvariantsParallelismIndependent verifies the build produces the
// same structure regardless of worker count.
func TestInvariantsParallelismIndependent(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 0xD00D))
	if err != nil {
		t.Fatal(err)
	}
	const parts = 32
	a, err := partition.Assign(g, partition.EdgePartition2D(), parts)
	if err != nil {
		t.Fatal(err)
	}
	assign := a.PIDs
	for _, par := range []int{1, 2, 5, 64} {
		SetGOMAXPROCS(t, par)
		pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckPartitionInvariants(g, assign, parts, pg); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
	}
}

// TestInvariantCheckerCatchesViolations makes sure the oracle is not
// vacuous: a corrupted assignment alignment must be reported.
func TestInvariantCheckerCatchesViolations(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 200, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	a, err := partition.Assign(g, partition.RandomVertexCut(), parts)
	if err != nil {
		t.Fatal(err)
	}
	assign := a.PIDs
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with a copy of the assignment: the partitioned graph no
	// longer matches it, and the checker must notice.
	bad := append([]partition.PID(nil), assign...)
	bad[0] = (bad[0] + 1) % parts
	if err := CheckPartitionInvariants(g, bad, parts, pg); err == nil {
		t.Fatal("checker accepted a tampered assignment")
	}
	if err := CheckPartitionInvariants(g, assign, parts+1, pg); err == nil {
		t.Fatal("checker accepted a wrong partition count")
	}
}
