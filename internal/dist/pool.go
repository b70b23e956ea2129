package dist

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cutfit/internal/par"
)

// ErrShardMissing is RunStart's 404, which the transport maps to a sentinel
// so the coordinator can re-ship instead of failing the run: the worker
// evicted or never had the shard, so the coordinator ships the container and
// retries.
var ErrShardMissing = errors.New("dist: shard not installed on worker")

// Transport is the wire behind the coordinator: one method per protocol
// RPC. The default is HTTP/1.1 (httpTransport); a gRPC implementation can
// replace it without touching coordinator or worker logic.
type Transport interface {
	Healthz(ctx context.Context, url string) (shards int, err error)
	InstallShard(ctx context.Context, url, key string, payload []byte) error
	StartRun(ctx context.Context, url string, spec RunSpec) error
	// Step posts one broadcast frame and returns the worker's reduce frame,
	// read into reply's storage (which may be nil).
	Step(ctx context.Context, url, runID string, frame, reply []byte) ([]byte, error)
	FinishRun(ctx context.Context, url, runID string) error
}

// workerCache mirrors what one worker holds: the keys it was sent, oldest
// first and bounded by maxShards exactly as the worker's own cache is, so
// graphs alternating on the cluster stay resident. mu is held while a shard
// ships to the worker.
type workerCache struct {
	mu   sync.Mutex
	keys []string
}

// sent records a shipped shard as the worker's newest.
func (wc *workerCache) sent(key string) {
	wc.keys = append(wc.keys, key)
	if len(wc.keys) > maxShards {
		wc.keys = wc.keys[1:]
	}
}

// Pool is a fixed set of workers plus the per-worker shard caches. It is
// safe for concurrent use; shard preparation is serialized per worker, so
// two concurrent runs needing one new generation ship it to a worker once,
// while different workers are shipped to at the same time.
type Pool struct {
	urls   []string
	tr     Transport
	caches []workerCache // by worker index

	runPrefix string
	runSeq    atomic.Uint64

	// mergeShards, when positive, replaces GOMAXPROCS as the coordinator's
	// reduce-merge shard count; only this package's tests set it, to run a
	// merge shape that differs from the workers' scan shape in one process.
	mergeShards int
}

// NewPool builds a pool over the given worker base URLs (e.g.
// "http://127.0.0.1:9090") with the HTTP transport.
func NewPool(urls []string) *Pool {
	var prefix [6]byte
	rand.Read(prefix[:])
	p := &Pool{
		urls:      append([]string(nil), urls...),
		tr:        newHTTPTransport(),
		caches:    make([]workerCache, len(urls)),
		runPrefix: hex.EncodeToString(prefix[:]),
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.urls) }

// URLs returns the configured worker base URLs.
func (p *Pool) URLs() []string { return append([]string(nil), p.urls...) }

func (p *Pool) nextRunID() string {
	return fmt.Sprintf("%s-%d", p.runPrefix, p.runSeq.Add(1))
}

// WorkerStatus is one worker's health snapshot, served by cutfitd's
// /v1/cluster endpoint.
type WorkerStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Shards  int    `json:"shards"`
	Error   string `json:"error,omitempty"`
}

// Status polls every worker's health endpoint concurrently. Every worker
// gets its row even once ctx is done: ctx bounds the polls, not the
// hand-out, so a poll ctx cut short reads unhealthy, with ctx's error.
func (p *Pool) Status(ctx context.Context) []WorkerStatus {
	out := make([]WorkerStatus, len(p.urls))
	if err := par.ForEach(context.Background(), len(p.urls), len(p.urls), func(i int) {
		out[i].URL = p.urls[i]
		shards, err := p.tr.Healthz(ctx, p.urls[i])
		if err != nil {
			out[i].Error = err.Error()
			return
		}
		out[i].Healthy = true
		out[i].Shards = shards
	}); err != nil {
		panic(err) // a Transport that panicked; raised here, on the caller
	}
	return out
}

// httpTransport is the v1 wire: HTTP/1.1 with binary frames and JSON specs.
type httpTransport struct {
	client *http.Client
}

func newHTTPTransport() *httpTransport {
	return &httpTransport{client: &http.Client{Timeout: 5 * time.Minute}}
}

// do runs one instrumented RPC and returns the response body for 2xx, read
// into reply's storage. errStatus maps one non-2xx status to a sentinel
// error.
func (t *httpTransport) do(ctx context.Context, rpc, method, url string, headers map[string]string, body, reply []byte, errStatus int, errSentinel error) ([]byte, error) {
	start := time.Now()
	resp, err := t.roundTrip(ctx, method, url, headers, body)
	hRPCSeconds.With(rpc).Observe(time.Since(start).Seconds())
	if err != nil {
		cRPCErrors.With(rpc).Inc()
		return nil, fmt.Errorf("dist: %s %s: %w", rpc, url, err)
	}
	defer resp.Body.Close()
	respBody, err := readSized(reply, io.LimitReader(resp.Body, maxBodyBytes), resp.ContentLength)
	if err != nil {
		cRPCErrors.With(rpc).Inc()
		return nil, fmt.Errorf("dist: %s %s: reading response: %w", rpc, url, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return respBody, nil
	}
	if errSentinel != nil && resp.StatusCode == errStatus {
		return nil, fmt.Errorf("%w (%s)", errSentinel, url)
	}
	cRPCErrors.With(rpc).Inc()
	return nil, fmt.Errorf("dist: %s %s: status %d: %s", rpc, url, resp.StatusCode, bytes.TrimSpace(respBody))
}

func (t *httpTransport) roundTrip(ctx context.Context, method, url string, headers map[string]string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	return t.client.Do(req)
}

func (t *httpTransport) Healthz(ctx context.Context, url string) (int, error) {
	body, err := t.do(ctx, "Health", http.MethodGet, url+"/dist/v1/healthz", nil, nil, nil, 0, nil)
	if err != nil {
		return 0, err
	}
	var h struct {
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, fmt.Errorf("dist: decoding health: %w", err)
	}
	return h.Shards, nil
}

func (t *httpTransport) InstallShard(ctx context.Context, url, key string, payload []byte) error {
	_, err := t.do(ctx, "ShardInstall", http.MethodPost, url+"/dist/v1/shards",
		map[string]string{HeaderShardKey: key}, payload, nil, 0, nil)
	return err
}

func (t *httpTransport) StartRun(ctx context.Context, url string, spec RunSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	_, err = t.do(ctx, "RunStart", http.MethodPost, url+"/dist/v1/runs",
		map[string]string{"Content-Type": "application/json"}, body, nil,
		http.StatusNotFound, ErrShardMissing)
	return err
}

// frameHeaders are the request headers of every superstep; read-only.
var frameHeaders = map[string]string{"Content-Type": "application/octet-stream"}

func (t *httpTransport) Step(ctx context.Context, url, runID string, frame, reply []byte) ([]byte, error) {
	cBytes.With("broadcast").Add(int64(len(frame)))
	resp, err := t.do(ctx, "SuperstepExchange", http.MethodPost, url+"/dist/v1/runs/"+runID+"/step",
		frameHeaders, frame, reply, 0, nil)
	if err != nil {
		return nil, err
	}
	cBytes.With("reduce").Add(int64(len(resp)))
	return resp, nil
}

func (t *httpTransport) FinishRun(ctx context.Context, url, runID string) error {
	_, err := t.do(ctx, "RunFinish", http.MethodPost, url+"/dist/v1/runs/"+runID+"/finish", nil, nil, nil, 0, nil)
	return err
}
