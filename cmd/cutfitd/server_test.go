package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cutfit"
	"cutfit/internal/algorithms"
)

// edge list shared by the handler tests: two triangles joined by a bridge.
const testEdges = "0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n"

// mustServer builds a server or fails the test.
func mustServer(t *testing.T, opts serverOptions) *server {
	t.Helper()
	s, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(mustServer(t, serverOptions{}))
	t.Cleanup(ts.Close)
	post(t, ts, "/v1/graphs", map[string]any{"name": "tri", "edges": testEdges}, nil)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorReply
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func get(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestServerMetricsMatchesLibrary: the served MetricsReport equals a direct
// library computation, and a repeated request is answered from the cache.
func TestServerMetricsMatchesLibrary(t *testing.T) {
	ts := newTestServer(t)
	req := map[string]any{"graph": "tri", "strategy": "2D", "parts": 4}
	var rep1, rep2 cutfit.MetricsReport
	post(t, ts, "/v1/metrics", req, &rep1)
	post(t, ts, "/v1/metrics", req, &rep2)
	if rep1 != rep2 {
		t.Fatalf("repeated request differs: %+v vs %+v", rep1, rep2)
	}

	g, err := cutfit.LoadEdgeList(bytes.NewReader([]byte(testEdges)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := cutfit.Measure(g, cutfit.EdgePartition2D(), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := cutfit.NewMetricsReport("2D", 4, m)
	want.Graph = "tri"
	if rep1 != want {
		t.Fatalf("served %+v, library computed %+v", rep1, want)
	}

	var stats cutfit.CacheStats
	get(t, ts, "/v1/stats", &stats)
	if stats.Hits == 0 {
		t.Fatalf("no cache hit after repeated request: %+v", stats)
	}
}

// TestServerAdviseAndRun covers the advise (+measure ranking) and run
// endpoints, including auto strategy selection, and checks the run reuses
// the selection's cached artifacts.
func TestServerAdviseAndRun(t *testing.T) {
	ts := newTestServer(t)

	var adv cutfit.AdviseReport
	post(t, ts, "/v1/advise", map[string]any{"graph": "tri", "alg": "pagerank", "parts": 4, "measure": true}, &adv)
	if adv.Strategy == "" || adv.Metric != "CommCost" {
		t.Fatalf("bad advise report: %+v", adv)
	}
	if len(adv.Ranking) != len(cutfit.Strategies()) {
		t.Fatalf("ranking has %d rows, want %d", len(adv.Ranking), len(cutfit.Strategies()))
	}
	selected := 0
	for _, row := range adv.Ranking {
		if row.Selected {
			selected++
		}
	}
	if selected != 1 {
		t.Fatalf("%d rows marked selected, want 1", selected)
	}

	var run cutfit.RunReport
	post(t, ts, "/v1/run", map[string]any{"graph": "tri", "alg": "cc", "strategy": "auto", "parts": 4}, &run)
	if run.Components != 1 {
		t.Fatalf("cc found %d components, want 1", run.Components)
	}
	if !run.Converged || run.SimSecs <= 0 {
		t.Fatalf("bad run report: %+v", run)
	}
}

// TestServerConcurrentRequests hammers one graph from many goroutines —
// mixed metrics and runs — and asserts every response is identical to the
// first (the serving core must be deterministic under concurrency).
func TestServerConcurrentRequests(t *testing.T) {
	ts := newTestServer(t)
	mreq := map[string]any{"graph": "tri", "strategy": "2D", "parts": 4}
	rreq := map[string]any{"graph": "tri", "alg": "pagerank", "strategy": "2D", "parts": 4, "iters": 5}
	var wantM cutfit.MetricsReport
	post(t, ts, "/v1/metrics", mreq, &wantM)
	var wantR cutfit.RunReport
	post(t, ts, "/v1/run", rreq, &wantR)

	const workers = 8
	var wg sync.WaitGroup
	fail := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				var m cutfit.MetricsReport
				post(t, ts, "/v1/metrics", mreq, &m)
				if m != wantM {
					fail <- "metrics response diverged"
				}
			} else {
				var r cutfit.RunReport
				post(t, ts, "/v1/run", rreq, &r)
				if r.Supersteps != wantR.Supersteps || len(r.TopRanks) != len(wantR.TopRanks) {
					fail <- "run response diverged"
					return
				}
				for i := range r.TopRanks {
					if r.TopRanks[i] != wantR.TopRanks[i] {
						fail <- "run ranks diverged"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}

// TestServerRunExplicitZeroIters: iters:0 must reach the engine as "run to
// convergence" (cc on a path graph needs more than the default-10 rounds),
// not be coerced to the absent-field default.
func TestServerRunExplicitZeroIters(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, serverOptions{}))
	defer ts.Close()
	var sb bytes.Buffer
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	post(t, ts, "/v1/graphs", map[string]any{"name": "path", "edges": sb.String()}, nil)
	var run cutfit.RunReport
	post(t, ts, "/v1/run", map[string]any{"graph": "path", "alg": "cc", "strategy": "2D", "parts": 4, "iters": 0}, &run)
	if !run.Converged || run.Components != 1 {
		t.Fatalf("iters:0 did not run cc to convergence: %+v", run)
	}
	if run.Supersteps <= 10 {
		t.Fatalf("cc on a 41-vertex path converged in %d supersteps — iters:0 was coerced to a cap", run.Supersteps)
	}
}

// TestServerReregisterKeepsSharedCache: re-registering the same graph data
// (and replacing one of two names sharing a graph) must not wipe the live
// artifact cache of a graph that is still registered.
func TestServerReregisterKeepsSharedCache(t *testing.T) {
	ts := newTestServer(t)
	req := map[string]any{"graph": "tri", "strategy": "2D", "parts": 4}
	var rep cutfit.MetricsReport
	post(t, ts, "/v1/metrics", req, &rep)

	var before cutfit.CacheStats
	get(t, ts, "/v1/stats", &before)

	// newTestServer registers "tri" from inline edges; registering a second
	// name over the same bytes creates a distinct graph, so only the
	// same-entry re-register path can be exercised via a dataset graph
	// (BuildCached memoizes). Register it twice under one name.
	post(t, ts, "/v1/graphs", map[string]any{"name": "yt", "dataset": "youtube"}, nil)
	ytReq := map[string]any{"graph": "yt", "strategy": "2D", "parts": 8}
	post(t, ts, "/v1/metrics", ytReq, &rep)
	post(t, ts, "/v1/graphs", map[string]any{"name": "yt", "dataset": "youtube"}, nil) // idempotent re-register
	post(t, ts, "/v1/graphs", map[string]any{"name": "yt2", "dataset": "youtube"}, nil)
	post(t, ts, "/v1/graphs", map[string]any{"name": "yt2", "edges": testEdges}, nil) // replace one alias

	var after cutfit.CacheStats
	misses := after.Misses
	get(t, ts, "/v1/stats", &after)
	post(t, ts, "/v1/metrics", ytReq, &rep) // must still be a cache hit
	var final cutfit.CacheStats
	get(t, ts, "/v1/stats", &final)
	if final.Misses != after.Misses {
		t.Fatalf("re-register wiped the shared graph's cache (misses %d -> %d)", misses, final.Misses)
	}
}

// TestServerErrors: unknown graphs and bad strategies produce JSON errors
// with the right status.
func TestServerErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		path   string
		body   map[string]any
		status int
	}{
		{"/v1/metrics", map[string]any{"graph": "nope", "strategy": "2D", "parts": 4}, http.StatusNotFound},
		{"/v1/metrics", map[string]any{"graph": "tri", "strategy": "bogus", "parts": 4}, http.StatusBadRequest},
		{"/v1/run", map[string]any{"graph": "tri", "alg": "bogus", "strategy": "2D", "parts": 4}, http.StatusBadRequest},
		{"/v1/graphs", map[string]any{"name": ""}, http.StatusBadRequest},
	} {
		b, _ := json.Marshal(tc.body)
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var e errorReply
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("POST %s %v: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.status)
		}
		if e.Error == "" {
			t.Fatalf("POST %s: empty error body", tc.path)
		}
	}
}

// TestServerAppendEdges streams a batch into a registered graph and checks
// that runs see the grown generation, the old generation's cache seeds the
// new one (DeltaDerived > 0), and results match a cold server registered
// with the full edge list.
func TestServerAppendEdges(t *testing.T) {
	ts := newTestServer(t)
	// Warm the chain on the base generation.
	var base cutfit.RunReport
	post(t, ts, "/v1/run", map[string]any{"graph": "tri", "alg": "pagerank", "strategy": "2D", "parts": 4}, &base)

	const batch = "5 6\n6 0\n0 6\n"
	var rep appendReply
	post(t, ts, "/v1/graphs/tri/edges", map[string]any{"edges": batch}, &rep)
	if rep.Added != 3 || rep.Edges != 10 || rep.Vertices != 7 {
		t.Fatalf("append reply %+v, want 3 added / 10 edges / 7 vertices", rep)
	}

	var run cutfit.RunReport
	post(t, ts, "/v1/run", map[string]any{"graph": "tri", "alg": "dynamicpr", "strategy": "2D", "parts": 4, "iters": 0}, &run)

	var stats cutfit.CacheStats
	get(t, ts, "/v1/stats", &stats)
	if stats.DeltaDerived == 0 {
		t.Fatalf("append did not exercise the delta chain: %+v", stats)
	}

	// A cold server over the concatenated edge list must agree exactly.
	ts2 := httptest.NewServer(mustServer(t, serverOptions{}))
	defer ts2.Close()
	post(t, ts2, "/v1/graphs", map[string]any{"name": "tri", "edges": testEdges + batch}, nil)
	var want cutfit.RunReport
	post(t, ts2, "/v1/run", map[string]any{"graph": "tri", "alg": "dynamicpr", "strategy": "2D", "parts": 4, "iters": 0}, &want)
	want.Graph, run.Graph = "", ""
	if fmt.Sprint(run) != fmt.Sprint(want) {
		t.Fatalf("post-append run differs from cold full-graph run:\n got %+v\nwant %+v", run, want)
	}
}

// TestServerAppendErrors: unknown graph and empty batch are rejected.
func TestServerAppendErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		path   string
		body   map[string]any
		status int
	}{
		{"/v1/graphs/nope/edges", map[string]any{"edges": "0 1\n"}, http.StatusNotFound},
		{"/v1/graphs/tri/edges", map[string]any{"edges": ""}, http.StatusBadRequest},
	} {
		b, _ := json.Marshal(tc.body)
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var e errorReply
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("POST %s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
	}
}

// TestServerSlideWindow drives the sliding-window mode of the append
// endpoint: one request appends a batch AND expires the oldest edges in a
// single generation step, later artifacts still derive through the delta
// chain, and a pure-expiry request (no edges) works too — including one
// that pushes tombstones over the compaction threshold.
func TestServerSlideWindow(t *testing.T) {
	ts := newTestServer(t)
	// Warm the chain on the base generation.
	post(t, ts, "/v1/run", map[string]any{"graph": "tri", "alg": "pagerank", "strategy": "2D", "parts": 4}, nil)

	const batch = "5 6\n6 0\n0 6\n"
	var rep appendReply
	post(t, ts, "/v1/graphs/tri/edges", map[string]any{"edges": batch, "expire_before": 2}, &rep)
	if rep.Added != 3 || rep.Expired != 2 || rep.Edges != 8 || rep.Vertices != 7 {
		t.Fatalf("slide reply %+v, want 3 added / 2 expired / 8 live edges / 7 vertices", rep)
	}

	post(t, ts, "/v1/run", map[string]any{"graph": "tri", "alg": "dynamicpr", "strategy": "2D", "parts": 4, "iters": 0}, nil)
	var stats cutfit.CacheStats
	get(t, ts, "/v1/stats", &stats)
	if stats.DeltaDerived == 0 {
		t.Fatalf("sliding window did not exercise the delta chain: %+v", stats)
	}

	// Pure expiry: no edges, just retire the next two oldest. This pushes
	// tombstone density past the compaction threshold — the endpoint must
	// stay transparent to that (the next run pays a cold pass, not an
	// error).
	var rep2 appendReply
	post(t, ts, "/v1/graphs/tri/edges", map[string]any{"expire_before": 4}, &rep2)
	if rep2.Added != 0 || rep2.Expired != 2 || rep2.Edges != 6 {
		t.Fatalf("pure-expiry reply %+v, want 0 added / 2 expired / 6 live edges", rep2)
	}
	post(t, ts, "/v1/run", map[string]any{"graph": "tri", "alg": "pagerank", "strategy": "2D", "parts": 4}, nil)

	var graphs []graphReply
	get(t, ts, "/v1/graphs", &graphs)
	if len(graphs) != 1 || graphs[0].Edges != 6 {
		t.Fatalf("registry lists %+v, want one graph with 6 live edges", graphs)
	}
}

// TestServerTrianglesAfterExpiry: Triangle Count on a generation carrying
// tombstones (the sliding-window expiry path) answers 200 with the shrunk
// graph's total. It used to panic past the partitions' live edge lists,
// which reset the client's connection.
func TestServerTrianglesAfterExpiry(t *testing.T) {
	ts := newTestServer(t)
	run := map[string]any{"graph": "tri", "alg": "triangles", "strategy": "2D", "parts": 4}
	var before cutfit.RunReport
	post(t, ts, "/v1/run", run, &before)
	if before.Triangles != 2 {
		t.Fatalf("%d triangles before expiry, want 2", before.Triangles)
	}

	// Expire edge 0→1: one tombstone in seven slots stays under the
	// compaction threshold, and opens the triangle {0,1,2}.
	var rep appendReply
	post(t, ts, "/v1/graphs/tri/edges", map[string]any{"expire_before": 1}, &rep)
	if rep.Expired != 1 || rep.Edges != 6 {
		t.Fatalf("expiry reply %+v, want 1 expired / 6 live edges", rep)
	}
	var after cutfit.RunReport
	post(t, ts, "/v1/run", run, &after)
	if after.Triangles != 1 {
		t.Fatalf("%d triangles after expiry, want 1", after.Triangles)
	}
	var stats cutfit.CacheStats
	get(t, ts, "/v1/stats", &stats)
	if stats.DeltaDerived == 0 {
		t.Fatalf("expiry compacted or rebuilt instead of tombstoning: %+v", stats)
	}
}

// TestServerOversizedBodyReturns413: a request body over the 64 MiB cap is
// "too large", not "malformed" — the handler must answer 413, not 400.
func TestServerOversizedBodyReturns413(t *testing.T) {
	ts := newTestServer(t)
	payload := append([]byte(`{"edges":"`), bytes.Repeat([]byte(" "), maxRequestBytes)...)
	payload = append(payload, '"', '}')
	resp, err := http.Post(ts.URL+"/v1/graphs/tri/edges", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorReply
	_ = json.NewDecoder(resp.Body).Decode(&e)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%s), want %d", resp.StatusCode, e.Error, http.StatusRequestEntityTooLarge)
	}
	if e.Error == "" {
		t.Fatal("oversized body: empty error body")
	}
}

// TestServerSnapshotWarmStart is the kill-and-restart proof: a daemon
// serves runs, persists via POST /v1/snapshot, "dies", and a new daemon
// over the same data dir answers the identical /v1/run without a single
// re-partition — its registry and artifact cache come back from the
// snapshot, asserted via the cache counters (zero misses).
func TestServerSnapshotWarmStart(t *testing.T) {
	dir := t.TempDir()
	ts1 := httptest.NewServer(mustServer(t, serverOptions{dataDir: dir}))
	post(t, ts1, "/v1/graphs", map[string]any{"name": "tri", "edges": testEdges}, nil)
	runReq := map[string]any{"graph": "tri", "alg": "pagerank", "strategy": "2D", "parts": 4, "iters": 5}
	var want cutfit.RunReport
	post(t, ts1, "/v1/run", runReq, &want)
	var mwant cutfit.MetricsReport
	post(t, ts1, "/v1/metrics", map[string]any{"graph": "tri", "strategy": "2D", "parts": 4}, &mwant)

	var snap snapshotReply
	post(t, ts1, "/v1/snapshot", map[string]any{}, &snap)
	if snap.Graphs != 1 || snap.Artifacts < 3 || snap.Bytes <= 0 {
		t.Fatalf("snapshot reply %+v, want 1 graph and ≥3 artifacts", snap)
	}
	ts1.Close() // the "kill"

	ts2 := httptest.NewServer(mustServer(t, serverOptions{dataDir: dir}))
	defer ts2.Close()

	// The registry survived the restart.
	var graphs []graphReply
	get(t, ts2, "/v1/graphs", &graphs)
	if len(graphs) != 1 || graphs[0].Name != "tri" || graphs[0].Edges != 7 {
		t.Fatalf("warm-started registry %+v, want tri with 7 edges", graphs)
	}

	// Identical requests produce identical responses...
	var got cutfit.RunReport
	post(t, ts2, "/v1/run", runReq, &got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-restart run differs:\n got %+v\nwant %+v", got, want)
	}
	var mgot cutfit.MetricsReport
	post(t, ts2, "/v1/metrics", map[string]any{"graph": "tri", "strategy": "2D", "parts": 4}, &mgot)
	if mgot != mwant {
		t.Fatalf("post-restart metrics differ: %+v vs %+v", mgot, mwant)
	}

	// ...and nothing was re-partitioned: every request hit the restored
	// cache.
	var stats cutfit.CacheStats
	get(t, ts2, "/v1/stats", &stats)
	if stats.Misses != 0 {
		t.Fatalf("warm-started daemon recomputed %d artifacts: %+v", stats.Misses, stats)
	}
	if stats.Hits < 2 {
		t.Fatalf("warm-started daemon served %d hits, want ≥2: %+v", stats.Hits, stats)
	}
}

// TestServerSnapshotRequiresDataDir: POST /v1/snapshot on a memory-only
// daemon is a client error, not a crash.
func TestServerSnapshotRequiresDataDir(t *testing.T) {
	ts := newTestServer(t)
	b, _ := json.Marshal(map[string]any{})
	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("snapshot without -data-dir: status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

// TestServerRejectsCorruptSnapshot: a tampered snapshot must fail the boot
// loudly instead of silently starting cold (the operator deletes the file
// to accept a cold start).
func TestServerRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	ts1 := httptest.NewServer(mustServer(t, serverOptions{dataDir: dir}))
	post(t, ts1, "/v1/graphs", map[string]any{"name": "tri", "edges": testEdges}, nil)
	post(t, ts1, "/v1/snapshot", map[string]any{}, nil)
	ts1.Close()

	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(serverOptions{dataDir: dir}); err == nil {
		t.Fatal("boot over a corrupt snapshot must fail")
	}
}

// tryPost is the goroutine-safe flavor of post: it returns an error
// instead of calling t.Fatal, which must not run off the test goroutine.
func tryPost(ts *httptest.Server, path string, body any, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorReply
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, e.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// TestServerConcurrentAppendsAndRuns: appends, window slides and
// re-registrations race runs, metrics, advice and each other; every request
// must be answered 200 and every write must land (lost updates forbidden),
// so the final live-edge counts are exact.
func TestServerConcurrentAppendsAndRuns(t *testing.T) {
	ts := newTestServer(t)
	const appenders, sliders, registrars, runners, batches = 4, 3, 2, 4, 5

	// The sliding graph: a 64-edge ring. Each slide appends two edges and
	// expires below a position of its own, at most sliders*batches = 15 —
	// under the quarter of the list at which a generation compacts and
	// renumbers positions — so in any order the slides leave exactly the
	// positions below 15 dead.
	const winBase = 64
	var ring bytes.Buffer
	for i := 0; i < winBase; i++ {
		fmt.Fprintf(&ring, "%d %d\n", i, (i+1)%winBase)
	}
	post(t, ts, "/v1/graphs", map[string]any{"name": "win", "edges": ring.String()}, nil)

	var wg sync.WaitGroup
	spawn := func(n int, step func(worker, i int) error) {
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < batches; i++ {
					if err := step(w, i); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
	}
	spawn(appenders, func(a, i int) error {
		v := 100 + a*batches + i
		return tryPost(ts, "/v1/graphs/tri/edges", map[string]any{"edges": fmt.Sprintf("%d %d\n", v, v+1)}, nil)
	})
	spawn(sliders, func(s, i int) error {
		v := 100 + 2*(s*batches+i)
		return tryPost(ts, "/v1/graphs/win/edges", map[string]any{
			"edges":         fmt.Sprintf("%d %d\n%d %d\n", v, v+1, v+1, v),
			"expire_before": 1 + s*batches + i,
		}, nil)
	})
	// Two registrars replace the same three names with different three-edge
	// paths: whoever wins, each name ends with three edges.
	spawn(registrars, func(r, i int) error {
		v := 1000*r + 10*i
		return tryPost(ts, "/v1/graphs", map[string]any{
			"name":  fmt.Sprintf("reg-%d", (r+i)%3),
			"edges": fmt.Sprintf("%d %d\n%d %d\n%d %d\n", v, v+1, v+1, v+2, v+2, v+3),
		}, nil)
	})
	spawn(runners, func(r, i int) error {
		graph := []string{"tri", "win"}[(r+i)%2]
		if err := tryPost(ts, "/v1/run", map[string]any{"graph": graph, "alg": "cc", "strategy": "2D", "parts": 4}, new(cutfit.RunReport)); err != nil {
			return err
		}
		if err := tryPost(ts, "/v1/metrics", map[string]any{"graph": graph, "strategy": "2D", "parts": 4}, new(cutfit.MetricsReport)); err != nil {
			return err
		}
		return tryPost(ts, "/v1/advise", map[string]any{"graph": graph, "alg": "pagerank", "parts": 4}, new(cutfit.AdviseReport))
	})
	wg.Wait()

	var graphs []graphReply
	get(t, ts, "/v1/graphs", &graphs)
	got := make(map[string]int, len(graphs))
	for _, g := range graphs {
		got[g.Name] = g.Edges
	}
	want := map[string]int{
		"tri":   7 + appenders*batches,
		"win":   winBase + 2*sliders*batches - sliders*batches,
		"reg-0": 3, "reg-1": 3, "reg-2": 3,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live edges after the concurrent writes: %v, want %v", got, want)
	}
}

// TestServerBlockGraphRegistration: a graph registered from an on-disk
// block file (-block-graph) serves metrics identical to the same graph
// registered inline — the block tier is invisible to the pipeline.
func TestServerBlockGraphRegistration(t *testing.T) {
	gb, err := cutfit.LoadEdgeListBlocks(bytes.NewReader([]byte(testEdges)), 64)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tri.cfb")
	if err := cutfit.SaveBlockGraph(path, gb); err != nil {
		t.Fatal(err)
	}

	srv := mustServer(t, serverOptions{})
	if _, err := srv.registerBlockGraph("disk", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	post(t, ts, "/v1/graphs", map[string]any{"name": "mem", "edges": testEdges}, nil)

	req := func(name string) cutfit.MetricsReport {
		var rep cutfit.MetricsReport
		post(t, ts, "/v1/metrics", map[string]any{"graph": name, "strategy": "2D", "parts": 4}, &rep)
		return rep
	}
	disk, mem := req("disk"), req("mem")
	disk.Graph, mem.Graph = "", ""
	if disk != mem {
		t.Fatalf("block-file graph serves different metrics: %+v vs %+v", disk, mem)
	}

	if _, err := srv.registerBlockGraph("bad", filepath.Join(t.TempDir(), "absent.cfb")); err == nil {
		t.Fatal("registered a missing block-graph file")
	}
}

// TestServerUnknownAlgorithmBuildsNothing: /v1/run naming an algorithm the
// served-algorithm table does not hold answers 400 with the table's names,
// having assigned, built and cached nothing — /v1/stats reads the same before
// and after.
func TestServerUnknownAlgorithmBuildsNothing(t *testing.T) {
	ts := newTestServer(t)
	var before, after cutfit.CacheStats
	get(t, ts, "/v1/stats", &before)

	b, _ := json.Marshal(map[string]any{"graph": "tri", "alg": "nope", "strategy": "2D", "parts": 4})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var e errorReply
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	for _, entry := range algorithms.Served() {
		if !strings.Contains(e.Error, entry.Name) {
			t.Errorf("error %q does not list %s", e.Error, entry.Name)
		}
	}
	get(t, ts, "/v1/stats", &after)
	if after != before {
		t.Errorf("the refused run moved the cache: %+v, was %+v", after, before)
	}
}
