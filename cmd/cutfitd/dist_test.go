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
// two daemons on the registered graph, again after the same batch is
// appended to both, and again after the same window slide; and the
// coordinator's counters show, per generation, that all three runs went
// distributed and none fell back — a silently degraded cluster would still
// answer correctly, so only the counters catch it — and that the first run
// shipped each worker its whole shard once and the other two reused it.
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
	// so only their growth across a generation says anything.
	series := []string{`runs_total{mode="distributed"}`, `runs_total{mode="fallback"}`,
		`shards_shipped_total{kind="full"}`, `shards_shipped_total{kind="reused"}`}
	// Per generation: three runs, all distributed; the first ships each of
	// the two workers its shard, the other two reuse both.
	want := []int64{3, 0, 2, 4}

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
		before := distCounters(t, coord, series...)
		for _, alg := range []string{"pagerank", "dynamicpr", "cc"} {
			both(phase, "/v1/run", `{"graph":"ring","alg":"`+alg+`","strategy":"2D","parts":6,"iters":8}`)
		}
		after := distCounters(t, coord, series...)
		for i, name := range series {
			if got := after[i] - before[i]; got != want[i] {
				t.Errorf("%s: cutfit_dist_%s grew by %d, want %d", phase, name, got, want[i])
			}
		}
	}
	both("register", "/v1/graphs", `{"name":"ring","edges":`+strconv.Quote(base.String())+`}`)
	compareRuns("base generation")
	both("append", "/v1/graphs/ring/edges", `{"edges":`+strconv.Quote(batch.String())+`}`)
	compareRuns("grown generation")
	// Retire the oldest half of the ring's edges: a pure window slide.
	both("slide", "/v1/graphs/ring/edges", `{"expire_before":120}`)
	compareRuns("slid generation")
}
