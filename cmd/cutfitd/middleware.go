package main

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cutfit/internal/obsv"
)

// HTTP-layer metric series, registered at package init alongside the
// store/engine/block-tier series so GET /metrics names every family
// from the first scrape.
var (
	mHTTPRequests = obsv.Default.CounterVec("cutfit_http_requests_total",
		"Requests served, by route pattern and status code.", "endpoint", "code")
	hHTTPLatency = obsv.Default.HistogramVec("cutfit_http_request_seconds",
		"End-to-end request latency, by route pattern.", obsv.DefBuckets, "endpoint")
	gHTTPInFlight = obsv.Default.Gauge("cutfit_http_in_flight_requests",
		"Requests currently being served (admission-exempt endpoints included).")
	mHTTPErrors = obsv.Default.CounterVec("cutfit_http_errors_total",
		"Error responses, by route pattern and error-taxonomy code (see docs/API.md).", "endpoint", "error")
	mAdmissionRejected = obsv.Default.CounterVec("cutfit_admission_rejected_total",
		"Requests rejected with 429, by limiter scope (global or graph) and reason (queue_full or timeout).", "scope", "reason")
	gAdmissionQueue = obsv.Default.Gauge("cutfit_admission_queue_depth",
		"Requests currently parked in an admission wait queue (all scopes).")
	hAdmissionWait = obsv.Default.Histogram("cutfit_admission_queue_wait_seconds",
		"Time admitted-after-queueing requests spent waiting for a slot.", obsv.DefBuckets)
)

func init() {
	obsv.Default.GaugeFunc("cutfit_go_goroutines",
		"Goroutines currently live in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
}

// Error taxonomy: every error response carries one of these stable codes
// in its JSON body and its cutfit_http_errors_total label, so clients
// and dashboards switch on the code rather than parsing messages.
const (
	codeBadRequest       = "bad_request"
	codeNotFound         = "not_found"
	codeMethodNotAllowed = "method_not_allowed"
	codePayloadTooLarge  = "payload_too_large"
	codeOverCapacity     = "over_capacity"
	codeInternal         = "internal"
)

// codeForStatus maps an HTTP status onto the error taxonomy; non-error
// statuses map to "".
func codeForStatus(status int) string {
	switch {
	case status == http.StatusNotFound:
		return codeNotFound
	case status == http.StatusMethodNotAllowed:
		return codeMethodNotAllowed
	case status == http.StatusRequestEntityTooLarge:
		return codePayloadTooLarge
	case status == http.StatusTooManyRequests:
		return codeOverCapacity
	case status >= 500:
		return codeInternal
	case status >= 400:
		return codeBadRequest
	}
	return ""
}

// reqIDPrefix makes request IDs unique across daemon restarts; the
// atomic counter makes them unique within one.
var (
	reqIDPrefix  = func() string { var b [4]byte; _, _ = rand.Read(b[:]); return hex.EncodeToString(b[:]) }()
	reqIDCounter atomic.Int64
)

func nextRequestID() string {
	return fmt.Sprintf("%s-%06d", reqIDPrefix, reqIDCounter.Add(1))
}

// statusWriter captures the status code and body size a handler wrote,
// for the request log line and the per-code request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// exemptFromAdmission marks the endpoints that must answer even when
// the daemon is saturated: health probes and the metrics scrape (an
// operator debugging an overload needs exactly those two).
func exemptFromAdmission(path string) bool {
	return path == "/healthz" || path == "/metrics"
}

// ServeHTTP is the daemon's middleware stack: request ID, in-flight
// gauge, global admission control and panic recovery (serveAdmitted), then
// the mux, then the request counter/latency/error series and one
// structured log line.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := r.Header.Get("X-Request-ID")
	if rid == "" {
		rid = nextRequestID()
	}
	w.Header().Set("X-Request-ID", rid)
	endpoint := s.endpointLabel(r)

	gHTTPInFlight.Add(1)
	defer gHTTPInFlight.Add(-1)

	sw := &statusWriter{ResponseWriter: w}
	s.serveAdmitted(sw, r, rid)
	if sw.status == 0 {
		sw.status = http.StatusOK
	}

	elapsed := time.Since(start)
	mHTTPRequests.With(endpoint, strconv.Itoa(sw.status)).Inc()
	hHTTPLatency.With(endpoint).Observe(elapsed.Seconds())
	level := slog.LevelInfo
	if code := codeForStatus(sw.status); code != "" {
		mHTTPErrors.With(endpoint, code).Inc()
		if sw.status >= 500 {
			level = slog.LevelError
		} else {
			level = slog.LevelWarn
		}
	}
	s.logger.Log(r.Context(), level, "request",
		"id", rid,
		"method", r.Method,
		"path", r.URL.Path,
		"endpoint", endpoint,
		"status", sw.status,
		"bytes", sw.bytes,
		"duration", elapsed,
		"remote", r.RemoteAddr,
	)
}

// serveAdmitted runs the mux under the global admission limit. The slot is
// released however the handler ends, and a panicking handler ends as a 500:
// logged with the request's id and counted by ServeHTTP like any other
// response, where net/http's own recovery would drop the connection, count
// nothing and — before the release was deferred — leak the slot.
func (s *server) serveAdmitted(sw *statusWriter, r *http.Request, rid string) {
	release, ok := s.admit(sw, r, "global", s.limiter)
	if !ok {
		return
	}
	defer release()
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		s.logger.Error("handler panic", "id", rid, "method", r.Method, "path", r.URL.Path,
			"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
		if sw.status == 0 {
			writeError(sw, http.StatusInternalServerError, errors.New("internal error"))
		}
		// A response already begun cannot be taken back; it is still
		// accounted as the failure it is.
		sw.status = http.StatusInternalServerError
	}()
	s.mux.ServeHTTP(sw, r)
}

// endpointLabel resolves the mux pattern the request will route to, so
// metric labels stay low-cardinality ("/v1/graphs/{name}/edges", never
// one label value per graph name). Unroutable paths share one label.
func (s *server) endpointLabel(r *http.Request) string {
	if _, pattern := s.mux.Handler(r); pattern != "" {
		// Strip the method qualifier ("POST /v1/run" -> "/v1/run") so one
		// path is one label value across methods.
		if i := strings.IndexByte(pattern, ' '); i >= 0 {
			return pattern[i+1:]
		}
		return pattern
	}
	return "unrouted"
}

// admit runs one limiter's admission protocol for the request: fast
// acquire, else a bounded queued wait (tracked by the queue-depth gauge
// and wait histogram), else 429 with Retry-After. ok=false means the
// rejection response has been written; on ok=true the caller must call
// release after the work.
func (s *server) admit(w http.ResponseWriter, r *http.Request, scope string, lim *obsv.Limiter) (release func(), ok bool) {
	if lim == nil || exemptFromAdmission(r.URL.Path) {
		return func() {}, true
	}
	if release = lim.TryAcquire(); release != nil {
		return release, true
	}
	gAdmissionQueue.Add(1)
	release, waited, err := lim.Acquire(r.Context())
	gAdmissionQueue.Add(-1)
	if err != nil {
		reason := "timeout"
		if err == obsv.ErrOverCapacity {
			reason = "queue_full"
		}
		mAdmissionRejected.With(scope, reason).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(lim.RetryAfter().Seconds())))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("%s admission limit reached (%s); retry later", scope, reason))
		return nil, false
	}
	hAdmissionWait.Observe(waited.Seconds())
	return release, true
}

// admitGraph applies the per-graph concurrency limit once a handler has
// resolved which graph the request targets. Same contract as admit.
func (s *server) admitGraph(w http.ResponseWriter, r *http.Request, name string) (release func(), ok bool) {
	if s.graphLimit.MaxConcurrent < 0 {
		return func() {}, true
	}
	s.limMu.Lock()
	lim, found := s.graphLims[name]
	if !found {
		lim = obsv.NewLimiter(s.graphLimit)
		s.graphLims[name] = lim
	}
	s.limMu.Unlock()
	return s.admit(w, r, "graph", lim)
}
