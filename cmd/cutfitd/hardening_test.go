package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cutfit/internal/testutil"
)

// TestMethodNotAllowed: a known path with an unregistered method gets
// 405, an Allow header listing the path's methods, and the uniform JSON
// error body with the taxonomy code.
func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		method, path string
		wantAllow    string
	}{
		{http.MethodDelete, "/v1/run", "POST"},
		{http.MethodGet, "/v1/run", "POST"},
		{http.MethodPut, "/v1/graphs", "GET, POST"},
		{http.MethodDelete, "/v1/graphs/tri/edges", "POST"},
		{http.MethodPost, "/v1/stats", "GET"},
		{http.MethodPost, "/metrics", "GET"},
		{http.MethodDelete, "/healthz", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorReply
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.wantAllow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.wantAllow)
		}
		if e.Code != codeMethodNotAllowed {
			t.Errorf("%s %s: code = %q, want %q", tc.method, tc.path, e.Code, codeMethodNotAllowed)
		}
	}
}

// TestErrorTaxonomyCodes: representative error responses carry the
// documented taxonomy code in the body.
func TestErrorTaxonomyCodes(t *testing.T) {
	ts := newTestServer(t)
	check := func(path string, body string, wantStatus int, wantCode string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorReply
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != wantStatus || e.Code != wantCode {
			t.Errorf("POST %s: got (%d, %q), want (%d, %q): %s",
				path, resp.StatusCode, e.Code, wantStatus, wantCode, e.Error)
		}
	}
	check("/v1/metrics", `{"graph":"absent","strategy":"2D","parts":4}`, http.StatusNotFound, codeNotFound)
	check("/v1/metrics", `{"graph":"tri","strategy":"nope","parts":4}`, http.StatusBadRequest, codeBadRequest)
	check("/v1/run", `not json`, http.StatusBadRequest, codeBadRequest)
}

// TestRequestIDHeader: every response carries X-Request-ID; a
// caller-provided ID is echoed back.
func TestRequestIDHeader(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing generated X-Request-ID")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-42" {
		t.Errorf("X-Request-ID = %q, want caller-provided ID echoed", got)
	}
}

// TestGlobalAdmission429 deterministically exercises the 429 path: the
// test holds every global slot directly, so the request must queue,
// time out, and come back 429 with Retry-After — no timing races.
func TestGlobalAdmission429(t *testing.T) {
	s := mustServer(t, serverOptions{
		maxConcurrent: 2,
		maxQueue:      1,
		queueTimeout:  20 * time.Millisecond,
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	post(t, ts, "/v1/graphs", map[string]any{"name": "tri", "edges": testEdges}, nil)

	r1 := s.limiter.TryAcquire()
	r2 := s.limiter.TryAcquire()
	if r1 == nil || r2 == nil {
		t.Fatal("could not saturate the global limiter")
	}
	defer r1()
	defer r2()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var e errorReply
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if e.Code != codeOverCapacity {
		t.Errorf("code = %q, want %q", e.Code, codeOverCapacity)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}

	// Health and metrics stay reachable while the daemon is saturated.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s during saturation: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestPerGraphAdmission429: saturating one graph's limiter rejects
// requests for that graph but leaves other graphs servable.
func TestPerGraphAdmission429(t *testing.T) {
	s := mustServer(t, serverOptions{
		graphConcurrent: 1,
		maxQueue:        -1, // no queue: reject instantly, keeps the test deterministic
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	post(t, ts, "/v1/graphs", map[string]any{"name": "a", "edges": testEdges}, nil)
	post(t, ts, "/v1/graphs", map[string]any{"name": "b", "edges": testEdges}, nil)

	// Prime graph a's limiter (created lazily on first admission) and
	// hold its only slot.
	post(t, ts, "/v1/metrics", map[string]any{"graph": "a", "strategy": "2D", "parts": 2}, nil)
	s.limMu.Lock()
	lim := s.graphLims["a"]
	s.limMu.Unlock()
	if lim == nil {
		t.Fatal("graph limiter for a was not created")
	}
	release := lim.TryAcquire()
	if release == nil {
		t.Fatal("could not saturate graph a's limiter")
	}
	defer release()

	body := `{"graph":"a","strategy":"2D","parts":2}`
	resp, err := http.Post(ts.URL+"/v1/metrics", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e errorReply
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || e.Code != codeOverCapacity {
		t.Fatalf("graph a request: got (%d, %q), want (429, %q)", resp.StatusCode, e.Code, codeOverCapacity)
	}

	// Graph b is governed by its own limiter and still serves.
	post(t, ts, "/v1/metrics", map[string]any{"graph": "b", "strategy": "2D", "parts": 2}, nil)
}

// TestMetricsEndpointSpansLayers: GET /metrics parses as Prometheus
// text exposition and, after one mixed workload, exposes at least 15
// distinct series spanning the store, engine and HTTP layers.
func TestMetricsEndpointSpansLayers(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts, "/v1/metrics", map[string]any{"graph": "tri", "strategy": "2D", "parts": 4}, nil)
	post(t, ts, "/v1/run", map[string]any{"graph": "tri", "alg": "pagerank", "strategy": "2D", "parts": 4, "iters": 3}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}

	families := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(rest, " ")
		families[name] = true
	}
	if len(families) < 15 {
		t.Errorf("exposition holds %d families, want ≥ 15:\n%s", len(families), body)
	}
	layers := map[string]string{
		"store":  "cutfit_store_",
		"engine": "cutfit_pregel_",
		"http":   "cutfit_http_",
	}
	for layer, prefix := range layers {
		found := false
		for name := range families {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s-layer series (prefix %s) in exposition", layer, prefix)
		}
	}

	// The workload above must be visible: the run's store traffic and the
	// HTTP requests that carried it.
	for _, want := range []string{"cutfit_store_misses_total", "cutfit_http_requests_total{"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsUnderConcurrentLoad is the HTTP-level race suite for
// /metrics: mixed traffic mutates every layer's series while scrapers
// read the exposition; every scrape must parse and the request counter
// must be monotone across scrapes.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	ts := newTestServer(t)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(map[string]any{"graph": "tri", "strategy": "2D", "parts": 2 + w})
				resp, err := http.Post(ts.URL+"/v1/metrics", "application/json", bytes.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	var lastTotal int64 = -1
	for i := 0; i < 25; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			idx := strings.LastIndexByte(line, ' ')
			if idx < 0 {
				t.Fatalf("scrape %d: unparseable line %q", i, line)
			}
			if _, err := strconv.ParseFloat(line[idx+1:], 64); err != nil {
				t.Fatalf("scrape %d: bad value in %q: %v", i, line, err)
			}
			if strings.HasPrefix(line, "cutfit_http_requests_total{") {
				v, _ := strconv.ParseInt(line[idx+1:], 10, 64)
				total += v
			}
		}
		if total < lastTotal {
			t.Fatalf("scrape %d: request counter went backwards (%d -> %d)", i, lastTotal, total)
		}
		lastTotal = total
	}
	close(stop)
	writers.Wait()
}

// lockedBuffer is a log sink the test may read while request goroutines are
// still writing their closing log lines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPanickingHandlerReleasesSlotAndIsCounted: a handler that panics
// limit+1 times must not exhaust the global limiter (the slot release is
// deferred), and each panic must come back as a JSON 500 that reaches the
// request counter, the latency histogram, the error counter and the log
// with its request id — not as a dropped connection nothing accounts for.
func TestPanickingHandlerReleasesSlotAndIsCounted(t *testing.T) {
	const limit = 2
	var logs lockedBuffer
	s := mustServer(t, serverOptions{
		maxConcurrent: limit,
		maxQueue:      -1, // no queue: a leaked slot shows as an instant 429
		logger:        slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	s.mux.HandleFunc("GET /test/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	s.mux.HandleFunc("GET /test/late-panic", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"partial": "reply"})
		panic("after the reply began")
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	requests := mHTTPRequests.With("/test/panic", "500")
	latency := hHTTPLatency.With("/test/panic")
	failures := mHTTPErrors.With("/test/panic", codeInternal)
	before := [3]int64{requests.Value(), latency.Count(), failures.Value()}
	for i := 0; i <= limit; i++ {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/test/panic", nil)
		req.Header.Set("X-Request-ID", fmt.Sprintf("panic-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("request %d: %v (a panic must be answered, not drop the connection)", i, err)
		}
		var e errorReply
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || e.Code != codeInternal {
			t.Fatalf("request %d: got (%d, %q), want (500, %q)", i, resp.StatusCode, e.Code, codeInternal)
		}
		if !strings.Contains(logs.String(), fmt.Sprintf(`"msg":"handler panic","id":"panic-%d"`, i)) {
			t.Errorf("request %d: no panic log line carries its request id:\n%s", i, logs.String())
		}
	}
	after := [3]int64{requests.Value(), latency.Count(), failures.Value()}
	for i, name := range []string{"cutfit_http_requests_total", "cutfit_http_request_seconds", "cutfit_http_errors_total"} {
		if got := after[i] - before[i]; got != limit+1 {
			t.Errorf("%s grew by %d over %d panics", name, got, limit+1)
		}
	}

	// A panic after the reply began cannot change what the client got, but
	// is accounted as the failure it is.
	late := mHTTPRequests.With("/test/late-panic", "500")
	lateBefore := late.Value()
	resp, err := http.Get(ts.URL + "/test/late-panic")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || late.Value() != lateBefore+1 {
		t.Errorf("late panic: client saw %d, 500s counted %d; want 200 and 1", resp.StatusCode, late.Value()-lateBefore)
	}

	// Every slot is back: the limiter admits limit requests at once again.
	var held []func()
	for i := 0; i < limit; i++ {
		release := s.limiter.TryAcquire()
		if release == nil {
			t.Fatalf("only %d of %d global slots free after the panics", i, limit)
		}
		held = append(held, release)
	}
	for _, release := range held {
		release()
	}
}

// TestStalledHeadersAreClosed: the daemon's http.Server bounds how long a
// client may take over its request headers (and how long an idle keep-alive
// connection lives) but not how long a reply may take; a connection that
// sends half a request and stalls is closed by the server once the header
// timeout passes, without a reply.
func TestStalledHeadersAreClosed(t *testing.T) {
	testutil.CheckStalledHeadersAreClosed(t, newHTTPServer("127.0.0.1:0", http.NotFoundHandler()))
}
