package dist

import (
	"context"
	"encoding/binary"
	"sync/atomic"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// pairCounter passes every RPC through to the real transport and adds up the
// pair counts of the broadcast frames on their way out.
type pairCounter struct {
	Transport
	pairs atomic.Int64
}

func (c *pairCounter) Step(ctx context.Context, url, runID string, frame, reply []byte) ([]byte, error) {
	c.pairs.Add(int64(binary.LittleEndian.Uint32(frame[8:])))
	return c.Transport.Step(ctx, url, runID, frame, reply)
}

// TestBroadcastIsThePapersCommCost states the paper's identity on the wire.
// In a superstep where every vertex changed, for each of the paper's six
// strategies, on a cold build and on a topology a retraction was patched
// into (dead slots and ghosts in place), and one to
// three workers: (a) what the run is charged — SuperstepStats.BroadcastMsgs,
// the cost model's input — is CommCost + NonCut of the run's assignment,
// exactly as in a local run; (b) what the cluster moves — the pairs in the
// broadcast frames — is CommCost + NonCut of the same assignment coarsened to
// one part per worker (p mod W), and cutfit_dist_bytes_total{broadcast} grows
// by exactly one header per worker plus those pairs. The metric the paper
// says predicts run time is both what the model sees and what crosses the
// network.
func TestBroadcastIsThePapersCommCost(t *testing.T) {
	ctx := context.Background()
	const parts = 6
	g := randomGraph(91, 200, 1500)
	// The cluster entries whose first superstep has every vertex changed:
	// the rank programs (cc's first round moves only some labels), with the
	// width of their state on the wire.
	type allActive struct {
		e       *algorithms.Entry
		valSize int64
	}
	var oneSuperstep []allActive
	for _, e := range algorithms.ClusterServed() {
		switch v := e.Vertex.(type) {
		case algorithms.Vertex[float64, float64]:
			oneSuperstep = append(oneSuperstep, allActive{e, int64(v.VC.Size())})
		case algorithms.Vertex[algorithms.PRState, float64]:
			oneSuperstep = append(oneSuperstep, allActive{e, int64(v.VC.Size())})
		}
	}
	if len(oneSuperstep) < 2 {
		t.Fatalf("%d rank programs among the cluster entries, want both PageRank flavors", len(oneSuperstep))
	}
	edges := g.Edges()
	var retract []graph.Edge
	for i := 0; i < len(edges); i += 7 {
		retract = append(retract, edges[i])
	}
	for _, s := range partition.All() { // the paper's six
		for _, tombstoned := range []bool{false, true} {
			a, err := partition.Assign(g, s, parts)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			g := g
			if tombstoned {
				ng, _, err := g.Shrink(retract)
				if err != nil {
					t.Fatal(err)
				}
				if a, err = a.Extend(ng, s); err != nil {
					t.Fatal(err)
				}
				if pg, err = pg.ApplyDelta(a, nil); err != nil {
					t.Fatal(err)
				}
				g = ng
			}
			m, err := metrics.FromAssignment(a)
			if err != nil {
				t.Fatal(err)
			}
			for _, W := range []int{1, 2, 3} {
				coarsePIDs := make([]partition.PID, len(a.PIDs))
				for i, p := range a.PIDs {
					coarsePIDs[i] = partition.PID(workerOf(int(p), W))
				}
				coarse, err := partition.NewAssignment(g, "", coarsePIDs, W)
				if err != nil {
					t.Fatal(err)
				}
				cm, err := metrics.FromAssignment(coarse)
				if err != nil {
					t.Fatal(err)
				}
				pool, _ := startCluster(t, W)
				counter := &pairCounter{Transport: pool.tr}
				pool.tr = counter
				for _, alg := range oneSuperstep {
					counter.pairs.Store(0)
					bytesBefore := cBytes.With("broadcast").Value()
					_, stats, err := Run(ctx, pool, pg, alg.e, algorithms.ServedParams(1))
					if err != nil {
						t.Fatal(err)
					}
					if len(stats.Supersteps) != 1 || stats.Supersteps[0].ActiveVertices != int64(g.NumVertices()) {
						t.Fatalf("%s: want one all-active superstep, got %+v", alg.e.Name, stats.Supersteps)
					}
					if got, want := stats.Supersteps[0].BroadcastMsgs, m.CommCost+m.NonCut; got != want {
						t.Errorf("%s %s W=%d tombstoned=%v: BroadcastMsgs %d, CommCost+NonCut of the assignment %d", s.Name(), alg.e.Name, W, tombstoned, got, want)
					}
					if _, local, err := alg.e.Run(ctx, pg, algorithms.ServedParams(1)); err != nil || local.Supersteps[0].BroadcastMsgs != m.CommCost+m.NonCut {
						t.Errorf("%s %s tombstoned=%v: a local run charged %+v (err %v), want CommCost+NonCut %d", s.Name(), alg.e.Name, tombstoned, local, err, m.CommCost+m.NonCut)
					}
					pairs, want := counter.pairs.Load(), cm.CommCost+cm.NonCut
					if pairs != want {
						t.Errorf("%s %s W=%d: %d pairs in the broadcast frames, CommCost+NonCut of the assignment coarsened per worker %d", s.Name(), alg.e.Name, W, pairs, want)
					}
					if got, want := cBytes.With("broadcast").Value()-bytesBefore, int64(W)*frameHeaderSize+pairs*(4+alg.valSize); got != want {
						t.Errorf("%s %s W=%d: broadcast bytes grew by %d, want W·%d + pairs·%d = %d", s.Name(), alg.e.Name, W, got, frameHeaderSize, 4+alg.valSize, want)
					}
				}
			}
		}
	}
}
