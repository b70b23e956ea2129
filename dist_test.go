package cutfit_test

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"cutfit"
	"cutfit/internal/algorithms"
	"cutfit/internal/dist"
	"cutfit/internal/obsv"
)

// TestSessionDistributedRun drives Session.Run through an attached worker
// pool on loopback sockets and requires the report to be deep-equal to the
// same Session running locally — values, stats, simulated time, all of it.
func TestSessionDistributedRun(t *testing.T) {
	g := sessionTestGraph(t)
	ctx := context.Background()

	local := cutfit.NewSession(cutfit.SessionOptions{})
	distSe := cutfit.NewSession(cutfit.SessionOptions{})
	urls := make([]string, 2)
	for i := range urls {
		srv := httptest.NewServer(dist.NewWorker().Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	distSe.AttachWorkers(cutfit.NewWorkerPool(urls))

	distBefore := distributedRuns()
	cluster := algorithms.ClusterServed()
	for _, e := range cluster {
		alg := e.Name
		want, err := local.Run(ctx, g, cutfit.EdgePartition2D(), 6, alg, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := distSe.Run(ctx, g, cutfit.EdgePartition2D(), 6, alg, 8)
		if err != nil {
			t.Fatalf("distributed %s: %v", alg, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: distributed report diverges from local\n got: %+v\nwant: %+v", alg, got, want)
		}
	}
	if got := distributedRuns() - distBefore; got != int64(len(cluster)) || got == 0 {
		t.Fatalf("%d runs crossed the cluster, want one per cluster entry of the table (%d)", got, len(cluster))
	}
}

// distributedRuns reads cutfit_dist_runs_total{mode="distributed"}.
func distributedRuns() int64 {
	return obsv.Default.CounterVec("cutfit_dist_runs_total", "", "mode").With("distributed").Value()
}

// TestSessionDistributedFallback attaches a pool of dead workers: Run must
// log an ERROR, fall back to the local engine, and return the exact report
// a local session produces — a worker loss degrades throughput, never
// correctness or availability.
func TestSessionDistributedFallback(t *testing.T) {
	g := sessionTestGraph(t)
	ctx := context.Background()

	var logBuf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logBuf, nil)))
	defer slog.SetDefault(prev)

	local := cutfit.NewSession(cutfit.SessionOptions{})
	broken := cutfit.NewSession(cutfit.SessionOptions{})
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	broken.AttachWorkers(cutfit.NewWorkerPool([]string{deadURL}))

	want, err := local.Run(ctx, g, cutfit.EdgePartition2D(), 4, "pagerank", 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := broken.Run(ctx, g, cutfit.EdgePartition2D(), 4, "pagerank", 5)
	if err != nil {
		t.Fatalf("fallback run failed instead of degrading: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback report diverges from local\n got: %+v\nwant: %+v", got, want)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "level=ERROR") || !strings.Contains(logged, "falling back to local run") {
		t.Fatalf("fallback did not log an ERROR line; log:\n%s", logged)
	}
}

// TestSessionDistributedAfterAppend ships generations as deltas: run, grow
// the graph through the session's append path, run again — both runs must
// match local bit-for-bit.
func TestSessionDistributedAfterAppend(t *testing.T) {
	g := sessionTestGraph(t)
	ctx := context.Background()

	local := cutfit.NewSession(cutfit.SessionOptions{})
	distSe := cutfit.NewSession(cutfit.SessionOptions{})
	urls := make([]string, 2)
	for i := range urls {
		srv := httptest.NewServer(dist.NewWorker().Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	distSe.AttachWorkers(cutfit.NewWorkerPool(urls))

	strat := cutfit.CanonicalRandomVertexCut()
	compare := func(label string, lg, dg *cutfit.Graph) {
		t.Helper()
		want, err := local.Run(ctx, lg, strat, 5, "pagerank", 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := distSe.Run(ctx, dg, strat, 5, "pagerank", 6)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: distributed report diverges from local", label)
		}
	}
	compare("base", g, g)

	batch := []cutfit.Edge{{Src: 0, Dst: 997}, {Src: 997, Dst: 998}, {Src: 998, Dst: 3}}
	lg2, err := local.AppendEdges(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	dg2, err := distSe.AppendEdges(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	compare("grown", lg2, dg2)
}
