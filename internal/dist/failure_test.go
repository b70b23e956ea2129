package dist

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
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
	vals, stats, err := runPageRank(context.Background(), pool, pg, 3)
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
	vals, stats, err := runPageRank(context.Background(), pool, pg, 5)
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

	ws, err := buildWorkerShard("k", extractShard(pg, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A run whose scan is slow — every edge takes a tenth of a millisecond,
	// a partition two, the shard over a hundred — and that cancels the
	// coordinator at its first edge.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var scanned atomic.Int64
	pr := vertexOf[float64, float64](t, "pagerank")
	prog := pr.Program(algorithms.ServedParams(1), g.OutDegrees())
	prog.SendMsg = func(*pregel.Triplet[float64], pregel.Emitter[float64]) {
		cancel()
		scanned.Add(1)
		time.Sleep(100 * time.Microsecond)
	}
	run, err := pregel.NewShardCompute(prog, ws.topo, pr.VC, pr.MC)
	if err != nil {
		t.Fatal(err)
	}
	wr := &workerRun{shard: ws, run: run, valSize: pr.VC.Size()}
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

// boundWorker is a worker behind a real socket holding pg's whole shard, as
// the RunStart tests need it.
func boundWorker(t *testing.T, pg *pregel.PartitionedGraph) (w *Worker, url, shard string) {
	t.Helper()
	w = NewWorker()
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	shard = shardKey(pg.G, pg.TopologySum(), pg.NumParts, 0, 1)
	if err := NewPool([]string{srv.URL}).prepareWorker(context.Background(), 0, shard, pg); err != nil {
		t.Fatal(err)
	}
	return w, srv.URL, shard
}

func postStatus(t *testing.T, url, contentType, body string) int {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func (w *Worker) liveRuns() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.runs)
}

// TestRunStartChecksSpec: a run spec is input off the network. Parameters
// the algorithm's table entry refuses, an algorithm the table keeps local and
// one it does not have are all answered 400 — by the same check the
// coordinator runs before it sends anything — and bind no run.
func TestRunStartChecksSpec(t *testing.T) {
	pg := mustPartition(t, hubAndChain(6, 8), partition.RandomVertexCut(), 3)
	w, url, shard := boundWorker(t, pg)
	for _, tc := range []struct {
		name, spec string
		want       int
	}{
		{"pagerank resetProb 2", `"algorithm":"pagerank","iters":3,"resetProb":2`, 400},
		{"pagerank resetProb -0.1", `"algorithm":"pagerank","iters":3,"resetProb":-0.1`, 400},
		{"pagerank iters 0", `"algorithm":"pagerank","iters":0,"resetProb":0.15`, 400},
		{"pagerank iters -4", `"algorithm":"pagerank","iters":-4,"resetProb":0.15`, 400},
		{"dynamicpr tol 0", `"algorithm":"dynamicpr","iters":0,"tol":0,"resetProb":0.15`, 400},
		{"dynamicpr tol -1", `"algorithm":"dynamicpr","iters":0,"tol":-1,"resetProb":0.15`, 400},
		{"dynamicpr tol NaN", `"algorithm":"dynamicpr","iters":0,"tol":NaN,"resetProb":0.15`, 400},
		{"dynamicpr resetProb 1", `"algorithm":"dynamicpr","iters":0,"tol":0.001,"resetProb":1`, 400},
		{"sssp is local-only", `"algorithm":"sssp","iters":0`, 400},
		{"triangles is local-only", `"algorithm":"triangles","iters":0`, 400},
		{"not an algorithm", `"algorithm":"nope","iters":3`, 400},
		{"pagerank", `"algorithm":"pagerank","iters":3,"resetProb":0.15`, 204},
		{"dynamicpr", `"algorithm":"dynamicpr","iters":0,"tol":0.001,"resetProb":0.15`, 204},
		{"cc", `"algorithm":"cc","iters":0`, 204},
	} {
		before := w.liveRuns()
		body := `{"run":"spec-` + tc.name + `","shard":"` + shard + `",` + tc.spec + `}`
		if got := postStatus(t, url+"/dist/v1/runs", "application/json", body); got != tc.want {
			t.Errorf("%s: RunStart answered %d, want %d", tc.name, got, tc.want)
		}
		wantBound := 0
		if tc.want == 204 {
			wantBound = 1
		}
		if got := w.liveRuns() - before; got != wantBound {
			t.Errorf("%s: RunStart bound %d runs, want %d", tc.name, got, wantBound)
		}
	}
}

// TestWorkerRunsBounded: a coordinator that dies between RunStart and
// RunFinish must not leave its run on the worker forever. One start past the
// bound drops the run started longest ago — its next superstep is a 404, on
// which a live coordinator falls back to a local run — and keeps the rest.
func TestWorkerRunsBounded(t *testing.T) {
	pg := mustPartition(t, hubAndChain(6, 8), partition.RandomVertexCut(), 3)
	w, url, shard := boundWorker(t, pg)
	ctx := context.Background()
	tr := NewPool([]string{url}).tr
	start := func(id string) {
		t.Helper()
		spec := RunSpec{Run: id, Shard: shard, Algorithm: "cc"}
		if err := tr.StartRun(ctx, url, spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < maxRuns; i++ {
		start("run-" + strconv.Itoa(i))
	}
	// A finished run frees its place: the next start drops nothing.
	if err := tr.FinishRun(ctx, url, "run-1"); err != nil {
		t.Fatal(err)
	}
	start("run-again")
	if got := w.liveRuns(); got != maxRuns {
		t.Fatalf("%d live runs after %d starts and a finish, want %d", got, maxRuns+1, maxRuns)
	}
	if _, err := tr.Step(ctx, url, "run-0", broadcastFrame(1, nil), nil); err != nil {
		t.Fatalf("oldest run dropped below the bound: %v", err)
	}

	start("run-over")
	if got := w.liveRuns(); got != maxRuns {
		t.Fatalf("%d live runs after a start past the bound, want %d", got, maxRuns)
	}
	frame := string(broadcastFrame(2, nil))
	if got := postStatus(t, url+"/dist/v1/runs/run-0/step", "application/octet-stream", frame); got != http.StatusNotFound {
		t.Errorf("step of the dropped run answered %d, want 404", got)
	}
	if _, err := tr.Step(ctx, url, "run-2", broadcastFrame(1, nil), nil); err != nil {
		t.Errorf("second-oldest run was dropped too: %v", err)
	}
	if _, err := tr.Step(ctx, url, "run-over", broadcastFrame(1, nil), nil); err != nil {
		t.Errorf("newest run: %v", err)
	}
}

// TestClusterRunsTheTablesColumn: the algorithms the cluster runs are exactly
// the served-algorithm table's entries that carry a Vertex, and every served
// algorithm runs locally; asking the cluster for a local-only one is an error
// before any worker is contacted.
func TestClusterRunsTheTablesColumn(t *testing.T) {
	pg := mustPartition(t, hubAndChain(6, 8), partition.RandomVertexCut(), 3)
	cluster := 0
	for _, e := range algorithms.Served() {
		p := algorithms.ServedParams(3)
		if _, _, err := e.Run(context.Background(), pg, p); err != nil {
			t.Errorf("%s does not run locally: %v", e.Name, err)
		}
		_, isWired := wired[e.Name]
		if isWired != (e.Vertex != nil) {
			t.Errorf("%s: wired on the cluster %v, table says %v", e.Name, isWired, e.Vertex != nil)
		}
		if isWired {
			cluster++
			continue
		}
		if _, _, err := Run(context.Background(), NewPool([]string{"http://127.0.0.1:1"}), pg, e, p); err == nil || !strings.Contains(err.Error(), "cluster does not run") {
			t.Errorf("%s on the cluster: %v, want a \"cluster does not run\" error", e.Name, err)
		}
	}
	if cluster != len(wired) || cluster != len(algorithms.ClusterServed()) {
		t.Errorf("%d table entries wired, %d wirings, %d cluster entries", cluster, len(wired), len(algorithms.ClusterServed()))
	}
}
