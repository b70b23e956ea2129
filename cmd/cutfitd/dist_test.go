package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cutfit/internal/dist"
)

// rawPost returns the body of a 200 reply, byte for byte.
func rawPost(t *testing.T, ts *httptest.Server, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return reply
}

// distCounters reads cutfit_dist_… counter series, labels included, off one
// scrape of the daemon's /metrics; a series nothing has counted yet reads 0.
func distCounters(t *testing.T, ts *httptest.Server, series ...string) []int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, len(series))
	for _, line := range strings.Split(string(scrape), "\n") {
		for i, name := range series {
			if v, ok := strings.CutPrefix(line, "cutfit_dist_"+name+" "); ok {
				if vals[i], err = strconv.ParseInt(v, 10, 64); err != nil {
					t.Fatalf("scrape line %q: %v", line, err)
				}
			}
		}
	}
	return vals
}

// TestCoordinatorMatchesLocalAcrossAppend: a daemon dispatching to two
// workers is indistinguishable over HTTP from a plain local one, except for
// where the supersteps ran. /v1/cluster reports every worker healthy; the
// /v1/run bodies for pagerank, dynamicpr and cc are byte-equal between the
// two daemons on the registered graph and again after the same batch is
// appended to both; and the coordinator's counters show that all six of its
// runs went distributed, none fell back — a silently degraded cluster would
// still answer correctly, so only the counters catch it — and the grown
// generation reached the workers as delta shards.
func TestCoordinatorMatchesLocalAcrossAppend(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		w := httptest.NewServer(dist.NewWorker().Handler())
		t.Cleanup(w.Close)
		urls[i] = w.URL
	}
	coord := httptest.NewServer(mustServer(t, serverOptions{workers: urls}))
	t.Cleanup(coord.Close)
	local := httptest.NewServer(mustServer(t, serverOptions{}))
	t.Cleanup(local.Close)

	var cluster clusterReply
	get(t, coord, "/v1/cluster", &cluster)
	if cluster.Mode != "distributed" || len(cluster.Workers) != len(urls) {
		t.Fatalf("coordinator reports %+v, want mode distributed over %d workers", cluster, len(urls))
	}
	for _, w := range cluster.Workers {
		if !w.Healthy {
			t.Fatalf("worker %s is not healthy: %s", w.URL, w.Error)
		}
	}
	// The registry is process-global: other tests' runs are in the counters,
	// so only their growth across this test says anything.
	series := []string{`runs_total{mode="distributed"}`, `runs_total{mode="fallback"}`, `shards_shipped_total{kind="delta"}`}
	before := distCounters(t, coord, series...)

	// A 120-vertex ring with chords, then a batch hanging 30 new vertices
	// off it.
	const n = 120
	var base, batch strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&base, "%d %d\n%d %d\n", i, (i+1)%n, i, (i*7+3)%n)
	}
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&batch, "%d %d\n%d %d\n", (i*11)%n, n+i, n+i, (i*5+1)%n)
	}
	both := func(phase, path, body string) {
		t.Helper()
		got, want := rawPost(t, coord, path, body), rawPost(t, local, path, body)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: POST %s %s diverges\ncoordinator: %s\nlocal:       %s", phase, path, body, got, want)
		}
	}
	compareRuns := func(phase string) {
		t.Helper()
		for _, alg := range []string{"pagerank", "dynamicpr", "cc"} {
			both(phase, "/v1/run", `{"graph":"ring","alg":"`+alg+`","strategy":"2D","parts":6,"iters":8}`)
		}
	}
	both("register", "/v1/graphs", `{"name":"ring","edges":`+strconv.Quote(base.String())+`}`)
	compareRuns("base generation")
	both("append", "/v1/graphs/ring/edges", `{"edges":`+strconv.Quote(batch.String())+`}`)
	compareRuns("grown generation")

	after := distCounters(t, coord, series...)
	if got := after[0] - before[0]; got < 6 {
		t.Errorf("%d runs dispatched distributed, want ≥ 6 (did the pool attach?)", got)
	}
	if got := after[1] - before[1]; got != 0 {
		t.Errorf("%d runs fell back to local execution: the cluster is silently degraded", got)
	}
	if after[2] == before[2] {
		t.Error("no delta shard shipped: the grown generation was not patched onto the workers' shards")
	}
}
