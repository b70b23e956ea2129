package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/partition"
)

// TestDeadWorkerFailsRun: a pool pointing at a worker that never answers
// must fail the run with an error — never return partial or wrong values.
func TestDeadWorkerFailsRun(t *testing.T) {
	live := httptest.NewServer(NewWorker().Handler())
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from the first RPC

	pool := NewPool([]string{live.URL, deadURL})
	pg := mustPartition(t, hubAndChain(6, 8), partition.RandomVertexCut(), 4)
	vals, stats, err := PageRank(context.Background(), pool, pg, 3, algorithms.DefaultResetProb)
	if err == nil {
		t.Fatal("run against a dead worker succeeded")
	}
	if vals != nil || stats != nil {
		t.Fatal("failed run returned values or stats")
	}
}

// TestWorkerLossMidRun kills a worker after it has answered its first
// superstep. The coordinator must surface an error for the whole run —
// graceful degradation is the caller's job (Session re-runs locally) and
// must never be a silently wrong distributed answer.
func TestWorkerLossMidRun(t *testing.T) {
	w0 := httptest.NewServer(NewWorker().Handler())
	defer w0.Close()

	// w1 proxies its worker until the second step request, then answers 500
	// for everything — the moral equivalent of the process dying mid-run.
	inner := NewWorker().Handler()
	var steps atomic.Int64
	w1 := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		isStep := r.Method == http.MethodPost && len(r.URL.Path) > 5 && r.URL.Path[len(r.URL.Path)-5:] == "/step"
		if isStep && steps.Add(1) >= 2 {
			http.Error(rw, "worker lost", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer w1.Close()

	pool := NewPool([]string{w0.URL, w1.URL})
	pg := mustPartition(t, hubAndChain(6, 8), partition.RandomVertexCut(), 4)
	vals, stats, err := PageRank(context.Background(), pool, pg, 5, algorithms.DefaultResetProb)
	if err == nil {
		t.Fatal("run across a mid-run worker loss succeeded")
	}
	if vals != nil || stats != nil {
		t.Fatal("failed run returned values or stats")
	}
	if steps.Load() < 2 {
		t.Fatalf("worker was killed before the failure point (%d step requests)", steps.Load())
	}
}

// TestOutOfSequenceStepRejected replays a superstep frame; the worker must
// answer 409, not double-apply the mirror updates.
func TestOutOfSequenceStepRejected(t *testing.T) {
	worker := NewWorker()
	srv := httptest.NewServer(worker.Handler())
	defer srv.Close()
	pool := NewPool([]string{srv.URL})
	pg := mustPartition(t, hubAndChain(6, 8), partition.RandomVertexCut(), 3)

	// Install the shard and bind a run by hand.
	sum := pg.TopologySum()
	key := shardKey(pg.G, sum, pg.NumParts, 0, 1)
	ctx := context.Background()
	if err := pool.prepareWorker(ctx, 0, key, pg); err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Run: "replay-test", Shard: key, Algorithm: "pagerank", Iters: 3, ResetProb: algorithms.DefaultResetProb}
	if err := pool.tr.StartRun(ctx, srv.URL, spec); err != nil {
		t.Fatal(err)
	}
	frame := encodeBroadcastFrame(1, nil)
	if _, err := pool.tr.Step(ctx, srv.URL, "replay-test", frame, nil); err != nil {
		t.Fatalf("first step: %v", err)
	}
	if _, err := pool.tr.Step(ctx, srv.URL, "replay-test", frame, nil); err == nil {
		t.Fatal("replayed superstep frame was accepted")
	}
}
