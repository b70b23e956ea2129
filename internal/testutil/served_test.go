package testutil

import (
	"context"
	"math"
	"reflect"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// TestServedMatchesSequentialOracle runs every entry of the served-algorithm
// table on the engine and against the entry's own sequential oracle, over the
// three structural families and two cuts of each: to convergence where the
// entry's check allows, else (pagerank) for ten rounds. Integer-valued
// results must be equal; ranks agree to rounding, or — for the
// tolerance-gated variant, whose oracle converges ten times tighter — to a
// small multiple of the tolerance, relative to the rank (a hub accumulates
// every neighbor's withheld delta).
func TestServedMatchesSequentialOracle(t *testing.T) {
	const tol = 1e-4
	paramSets := []algorithms.Params{
		{Tol: tol, ResetProb: algorithms.DefaultResetProb},
		{Iters: 10, ResetProb: algorithms.DefaultResetProb},
	}
	for gname, g := range testGraphs(t) {
		for _, s := range []partition.Strategy{partition.EdgePartition2D(), partition.CanonicalRandomVertexCut()} {
			a, err := partition.Assign(g, s, 7)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range algorithms.Served() {
				p := paramSets[0]
				if e.Check(p) != nil {
					p = paramSets[1]
				}
				got, stats, err := e.Run(context.Background(), pg, p)
				if err != nil {
					t.Fatalf("%s on %s/%s: %v", e.Name, gname, s.Name(), err)
				}
				if p.Iters == 0 && !stats.Converged {
					t.Errorf("%s on %s/%s: uncapped run did not converge", e.Name, gname, s.Name())
				}
				oracle := p
				oracle.Tol /= 10
				want := e.Seq(g, oracle)
				if hops, ok := got.(algorithms.HopTable); ok {
					got = hops.DistMaps()
				}
				ranks, isRanks := got.([]float64)
				if !isRanks {
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s on %s/%s: engine values differ from the sequential oracle's", e.Name, gname, s.Name())
					}
					continue
				}
				wantRanks := want.([]float64)
				if len(ranks) != len(wantRanks) {
					t.Fatalf("%s on %s/%s: %d ranks, oracle has %d", e.Name, gname, s.Name(), len(ranks), len(wantRanks))
				}
				for i, w := range wantRanks {
					if d := math.Abs(ranks[i] - w); d > (1e-9+100*p.Tol)*(1+math.Abs(w)) {
						t.Errorf("%s on %s/%s: vertex %d ranks %g, oracle %g", e.Name, gname, s.Name(), i, ranks[i], w)
						break
					}
				}
			}
		}
	}
}
