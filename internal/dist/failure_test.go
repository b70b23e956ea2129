package dist

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
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
	frame := broadcastFrame(1, nil)
	if _, err := pool.tr.Step(ctx, srv.URL, "replay-test", frame, nil); err != nil {
		t.Fatalf("first step: %v", err)
	}
	if _, err := pool.tr.Step(ctx, srv.URL, "replay-test", frame, nil); err == nil {
		t.Fatal("replayed superstep frame was accepted")
	}
}

// TestCancelledRunStopsScanning cancels the coordinator's context in the
// middle of a superstep. The worker learns of it when the connection closes,
// stops at the next partition boundary — scanning a few of its sixty-four
// partitions, not all — answers nothing, leaves the superstep unacknowledged,
// and RunFinish releases the run's state.
func TestCancelledRunStopsScanning(t *testing.T) {
	const numParts, edgesPerPart = 64, 20
	edges := make([]graph.Edge, numParts*edgesPerPart)
	assign := make([]partition.PID, len(edges))
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i % 97), Dst: graph.VertexID(i % 89)}
		assign[i] = partition.PID(i / edgesPerPart)
	}
	g := graph.FromEdges(edges)
	pg, err := pregel.NewPartitionedGraph(g, assign, numParts)
	if err != nil {
		t.Fatal(err)
	}

	worker := NewWorker()
	stepReturned := make(chan struct{}, 1)
	inner := worker.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(rw, r)
		if strings.HasSuffix(r.URL.Path, "/step") {
			stepReturned <- struct{}{}
		}
	}))
	defer srv.Close()
	pool := NewPool([]string{srv.URL})

	ws, err := buildWorkerShard("k", extractShard(pg, 0, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A run whose scan is slow — every edge takes a tenth of a millisecond,
	// a partition two, the shard over a hundred — and that cancels the
	// coordinator at its first edge.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var scanned atomic.Int64
	prog := algorithms.PageRankProgram(1, algorithms.DefaultResetProb, g.OutDegrees())
	prog.SendMsg = func(*pregel.Triplet[float64], pregel.Emitter[float64]) {
		cancel()
		scanned.Add(1)
		time.Sleep(100 * time.Microsecond)
	}
	run, err := newShardRunT(prog, ws, f64Codec{}, f64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	wr := &workerRun{shard: ws, run: run}
	worker.mu.Lock()
	worker.runs["cancelled"] = wr
	worker.mu.Unlock()

	statusBefore := cWorkerRequests.With("SuperstepExchange", "499").Value()
	if _, err := pool.tr.Step(ctx, srv.URL, "cancelled", broadcastFrame(1, nil), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("step under a cancelled context: %v, want context.Canceled", err)
	}
	select {
	case <-stepReturned:
	case <-time.After(30 * time.Second):
		t.Fatal("the worker is still scanning half a minute after the coordinator hung up")
	}
	if got := scanned.Load(); got == 0 || got > numParts*edgesPerPart/4 {
		t.Errorf("%d of %d edges scanned after the cancel at the first: the scan did not stop at a partition boundary soon after", got, len(edges))
	}
	if wr.lastStep != 0 {
		t.Errorf("the abandoned superstep was acknowledged: lastStep %d", wr.lastStep)
	}
	if got := cWorkerRequests.With("SuperstepExchange", "499").Value() - statusBefore; got != 1 {
		t.Errorf("%d abandoned supersteps counted under code 499, want 1", got)
	}
	if err := pool.tr.FinishRun(context.Background(), srv.URL, "cancelled"); err != nil {
		t.Fatal(err)
	}
	worker.mu.Lock()
	defer worker.mu.Unlock()
	if len(worker.runs) != 0 {
		t.Errorf("RunFinish left %d runs on the worker", len(worker.runs))
	}
}
