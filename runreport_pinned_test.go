package cutfit_test

import (
	"context"
	"encoding/json"
	"testing"

	"cutfit"
	"cutfit/internal/testutil"
)

// pinnedGraph is a 120-vertex directed ring with two families of chords: a
// skip-one chord at every fourth vertex (closing a triangle with the two ring
// edges it spans) and a long chord at every third.
func pinnedGraph() *cutfit.Graph {
	const n = 120
	var edges []cutfit.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, cutfit.Edge{Src: cutfit.VertexID(i), Dst: cutfit.VertexID((i + 1) % n)})
		if i%4 == 0 {
			edges = append(edges, cutfit.Edge{Src: cutfit.VertexID(i), Dst: cutfit.VertexID((i + 2) % n)})
		}
		if i%3 == 0 {
			edges = append(edges, cutfit.Edge{Src: cutfit.VertexID(i), Dst: cutfit.VertexID((7*i + 3) % n)})
		}
	}
	return cutfit.FromEdges(edges)
}

// pinnedReports are the RunReport encodings of Session.Run on pinnedGraph
// (2D, 6 partitions, 8 iterations), captured at the commit before the served
// algorithms moved into one table: a change to any byte of a run's JSON — a
// field renamed, reordered or newly omitted, a tie ordered differently, a
// count taken another way — fails here against that commit, not merely
// against another build of the same tree.
var pinnedReports = map[string]string{
	"pagerank":  `{"graph":"ring","algorithm":"pagerank","strategy":"2D","parts":6,"supersteps":8,"converged":false,"broadcastMsgs":2224,"reduceMsgs":1176,"activeEdges":1520,"frontier":[{"superstep":1,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":2,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":3,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":4,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":5,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":6,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":7,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":8,"activeVertices":120,"activeEdges":190,"msgsEmitted":190}],"topRanks":[{"vertex":0,"rank":1.6041893582691407},{"vertex":12,"rank":1.6041893582691407},{"vertex":24,"rank":1.6041893582691407},{"vertex":36,"rank":1.6041893582691407},{"vertex":48,"rank":1.6041893582691407}]}`,
	"dynamicpr": `{"graph":"ring","algorithm":"dynamicpr","strategy":"2D","parts":6,"supersteps":8,"converged":false,"broadcastMsgs":2224,"reduceMsgs":1176,"activeEdges":1520,"frontier":[{"superstep":1,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":2,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":3,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":4,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":5,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":6,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":7,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":8,"activeVertices":120,"activeEdges":190,"msgsEmitted":190}],"topRanks":[{"vertex":0,"rank":1.2127549318827322},{"vertex":12,"rank":1.2127549318827322},{"vertex":24,"rank":1.2127549318827322},{"vertex":36,"rank":1.2127549318827322},{"vertex":48,"rank":1.2127549318827322}]}`,
	"cc":        `{"graph":"ring","algorithm":"cc","strategy":"2D","parts":6,"supersteps":8,"converged":false,"broadcastMsgs":1707,"reduceMsgs":870,"activeEdges":1520,"frontier":[{"superstep":1,"activeVertices":120,"activeEdges":190,"msgsEmitted":190},{"superstep":2,"activeVertices":119,"activeEdges":190,"msgsEmitted":165},{"superstep":3,"activeVertices":114,"activeEdges":190,"msgsEmitted":152},{"superstep":4,"activeVertices":109,"activeEdges":190,"msgsEmitted":139},{"superstep":5,"activeVertices":98,"activeEdges":190,"msgsEmitted":127},{"superstep":6,"activeVertices":85,"activeEdges":190,"msgsEmitted":93},{"superstep":7,"activeVertices":64,"activeEdges":190,"msgsEmitted":69},{"superstep":8,"activeVertices":43,"activeEdges":190,"msgsEmitted":43}],"components":4}`,
	"triangles": `{"graph":"ring","algorithm":"triangles","strategy":"2D","parts":6,"supersteps":1,"converged":true,"broadcastMsgs":278,"reduceMsgs":162,"activeEdges":0,"frontier":[{"superstep":1,"activeVertices":120,"activeEdges":0,"msgsEmitted":162}],"triangles":34}`,
	"sssp":      `{"graph":"ring","algorithm":"sssp","strategy":"2D","parts":6,"supersteps":13,"converged":true,"broadcastMsgs":552,"reduceMsgs":121,"activeEdges":803,"frontier":[{"superstep":1,"activeVertices":120,"activeEdges":190,"msgsEmitted":2},{"superstep":2,"activeVertices":2,"activeEdges":3,"msgsEmitted":3},{"superstep":3,"activeVertices":3,"activeEdges":6,"msgsEmitted":6},{"superstep":4,"activeVertices":6,"activeEdges":9,"msgsEmitted":6},{"superstep":5,"activeVertices":6,"activeEdges":11,"msgsEmitted":9},{"superstep":6,"activeVertices":9,"activeEdges":15,"msgsEmitted":12},{"superstep":7,"activeVertices":11,"activeEdges":37,"msgsEmitted":13},{"superstep":8,"activeVertices":13,"activeEdges":79,"msgsEmitted":19},{"superstep":9,"activeVertices":18,"activeEdges":153,"msgsEmitted":19},{"superstep":10,"activeVertices":18,"activeEdges":143,"msgsEmitted":18},{"superstep":11,"activeVertices":18,"activeEdges":137,"msgsEmitted":10},{"superstep":12,"activeVertices":10,"activeEdges":12,"msgsEmitted":5},{"superstep":13,"activeVertices":5,"activeEdges":8,"msgsEmitted":0}],"landmark":0,"reached":120}`,
}

func TestRunReportEncodingPinned(t *testing.T) {
	g := pinnedGraph()
	if g.NumVertices() != 120 {
		t.Fatalf("%d vertices, want 120", g.NumVertices())
	}
	checkPinnedReports(t, cutfit.NewSession(cutfit.SessionOptions{}), g)
}

// TestRunReportIndependentOfWorkerCount: the pinned reports come out the same
// whether the topology is built on four workers and the five algorithms run
// on one, or the other way round. A run takes its worker count when it
// starts, not from the topology it runs on; RunStats.ApplyPerShard has one
// entry per worker, but nothing the report encodes may depend on it.
func TestRunReportIndependentOfWorkerCount(t *testing.T) {
	for _, order := range []struct{ build, run int }{{4, 1}, {1, 4}} {
		g := pinnedGraph()
		se := cutfit.NewSession(cutfit.SessionOptions{})
		testutil.SetGOMAXPROCS(t, order.build)
		if _, err := se.Partition(g, cutfit.EdgePartition2D(), 6); err != nil {
			t.Fatal(err)
		}
		built := se.CacheStats().Misses
		testutil.SetGOMAXPROCS(t, order.run)
		checkPinnedReports(t, se, g)
		if misses := se.CacheStats().Misses; misses != built {
			t.Errorf("built on %d workers: the runs missed the store %d times, want 0", order.build, misses-built)
		}
	}
}

// checkPinnedReports runs the five served algorithms on g (2D, 6 partitions,
// 8 iterations) through se and compares each report's JSON with its pinned
// encoding.
func checkPinnedReports(t *testing.T, se *cutfit.Session, g *cutfit.Graph) {
	t.Helper()
	for _, alg := range []string{"pagerank", "dynamicpr", "cc", "triangles", "sssp"} {
		rep, err := se.Run(context.Background(), g, cutfit.EdgePartition2D(), 6, alg, 8)
		if err != nil {
			t.Fatal(err)
		}
		rep.Graph = "ring"
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != pinnedReports[alg] {
			t.Errorf("%s:\n got %s\nwant %s", alg, got, pinnedReports[alg])
		}
	}
}
