package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"cutfit"
	"cutfit/internal/obsv"
)

// serverOptions configures the daemon's Session and serving policy.
// The zero value is fully usable: default cache budget, GOMAXPROCS
// parallelism, default admission limits, discarded logs.
type serverOptions struct {
	cacheBytes  int64
	parallelism int
	// dataDir enables durability: the artifact cache spills evicted entries
	// to <dataDir>/cache/, and <dataDir>/cutfitd.snap — written by
	// POST /v1/snapshot and on graceful shutdown — warm-starts the whole
	// session (graph registry included) on the next boot.
	dataDir string

	// Admission control. maxConcurrent bounds requests in flight across
	// the daemon (0: default 64; <0: unlimited); graphConcurrent bounds
	// them per target graph (0: default 32; <0: unlimited). Over-limit
	// requests wait in a bounded queue (maxQueue; 0: defaults) up to
	// queueTimeout (0: 2s), then get 429 + Retry-After. /healthz and
	// /metrics are exempt, so a saturated daemon stays observable.
	maxConcurrent   int
	graphConcurrent int
	maxQueue        int
	queueTimeout    time.Duration

	// logger receives one structured line per request; nil discards.
	logger *slog.Logger

	// workers lists cutfit-worker base URLs (-workers). Non-empty attaches
	// a cutfit.WorkerPool to the Session, so /v1/run dispatches the
	// cluster-run algorithms across it — bit-identical to local runs, with
	// automatic local fallback if any worker fails mid-run.
	workers []string
}

// snapshotFile is the session snapshot inside -data-dir.
const snapshotFile = "cutfitd.snap"

// graphEntry is one registered graph with its summary.
type graphEntry struct {
	g        *cutfit.Graph
	vertices int
	edges    int
}

// server is the HTTP facade over one concurrent cutfit.Session plus a
// named-graph registry. All handler state is either the Session (safe for
// concurrent use by construction) or the registry map under its RWMutex,
// so the stock net/http one-goroutine-per-request model needs no further
// coordination.
type server struct {
	session *cutfit.Session
	mux     *http.ServeMux
	dataDir string
	logger  *slog.Logger

	// limiter is the global admission bound; graphLims holds one lazily
	// created limiter per registered graph name, each sized by
	// graphLimit. See middleware.go for the admission protocol.
	limiter    *obsv.Limiter
	graphLimit obsv.LimiterConfig
	limMu      sync.Mutex
	graphLims  map[string]*obsv.Limiter

	mu     sync.RWMutex
	graphs map[string]*graphEntry
	// blockFiles are the handles behind graphs registered from on-disk
	// block-graph files (-block-graph); they stay open for the life of the
	// process so blocks keep decoding straight from disk.
	blockFiles []io.Closer

	// persistMu serializes snapshot writes (concurrent POST /v1/snapshot
	// calls, or one racing the shutdown persist).
	persistMu sync.Mutex
}

// apiRoute is one row of the daemon's routing table — the single source
// of truth that mux registration, the 405 Allow headers and the
// docs/API.md drift guard all read.
type apiRoute struct {
	method  string
	path    string
	handler func(*server) http.HandlerFunc
}

var apiRoutes = []apiRoute{
	{"POST", "/v1/graphs", func(s *server) http.HandlerFunc { return s.handleRegisterGraph }},
	{"GET", "/v1/graphs", func(s *server) http.HandlerFunc { return s.handleListGraphs }},
	{"POST", "/v1/graphs/{name}/edges", func(s *server) http.HandlerFunc { return s.handleAppendEdges }},
	{"POST", "/v1/metrics", func(s *server) http.HandlerFunc { return s.handleMetrics }},
	{"POST", "/v1/advise", func(s *server) http.HandlerFunc { return s.handleAdvise }},
	{"POST", "/v1/run", func(s *server) http.HandlerFunc { return s.handleRun }},
	{"POST", "/v1/snapshot", func(s *server) http.HandlerFunc { return s.handleSnapshot }},
	{"GET", "/v1/stats", func(s *server) http.HandlerFunc { return s.handleStats }},
	{"GET", "/v1/cluster", func(s *server) http.HandlerFunc { return s.handleCluster }},
	{"GET", "/metrics", func(s *server) http.HandlerFunc { return s.handleMetricsScrape }},
	{"GET", "/healthz", func(s *server) http.HandlerFunc { return s.handleHealthz }},
}

// newServer builds the daemon. With opts.dataDir set it warm-starts from
// <dataDir>/cutfitd.snap when one exists — the graph registry and every
// cached artifact come back from one read, so the first /v1/run after a
// restart never re-partitions — and wires the session's disk tier under
// <dataDir>/cache/. A corrupt snapshot fails loudly (delete the file to
// boot cold) rather than silently paying a full re-partition.
func newServer(opts serverOptions) (*server, error) {
	sopts := cutfit.SessionOptions{
		MaxCacheBytes: opts.cacheBytes,
		Parallelism:   opts.parallelism,
	}
	var (
		session  *cutfit.Session
		restored map[string]*cutfit.Graph
	)
	if opts.dataDir != "" {
		if err := os.MkdirAll(opts.dataDir, 0o755); err != nil {
			return nil, fmt.Errorf("cutfitd: creating data dir: %w", err)
		}
		sopts.DiskDir = filepath.Join(opts.dataDir, "cache")
		path := filepath.Join(opts.dataDir, snapshotFile)
		f, err := os.Open(path)
		switch {
		case err == nil:
			session, restored, err = cutfit.RestoreSession(f, sopts)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("cutfitd: warm start from %s: %w", path, err)
			}
		case !errors.Is(err, os.ErrNotExist):
			return nil, fmt.Errorf("cutfitd: opening snapshot: %w", err)
		}
	}
	if session == nil {
		session = cutfit.NewSession(sopts)
	}
	if len(opts.workers) > 0 {
		session.AttachWorkers(cutfit.NewWorkerPool(opts.workers))
	}
	logger := opts.logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	graphConcurrent := opts.graphConcurrent
	if graphConcurrent == 0 {
		graphConcurrent = 32
	}
	s := &server{
		session: session,
		dataDir: opts.dataDir,
		logger:  logger,
		limiter: obsv.NewLimiter(obsv.LimiterConfig{
			MaxConcurrent: opts.maxConcurrent,
			MaxQueue:      opts.maxQueue,
			QueueTimeout:  opts.queueTimeout,
		}),
		graphLimit: obsv.LimiterConfig{
			MaxConcurrent: graphConcurrent,
			MaxQueue:      opts.maxQueue,
			QueueTimeout:  opts.queueTimeout,
		},
		graphLims: make(map[string]*obsv.Limiter),
		graphs:    make(map[string]*graphEntry, len(restored)),
		mux:       http.NewServeMux(),
	}
	for name, g := range restored {
		s.graphs[name] = &graphEntry{g: g, vertices: g.NumVertices(), edges: g.NumLiveEdges()}
	}
	// Register the method-qualified routes, then a path-only fallback per
	// path: the Go 1.22 mux prefers the more specific method patterns, so
	// the fallback fires exactly for known-path/wrong-method requests and
	// answers 405 with an Allow header instead of the mux's plain-text
	// default.
	byPath := make(map[string][]string)
	for _, rt := range apiRoutes {
		s.mux.HandleFunc(rt.method+" "+rt.path, rt.handler(s))
		byPath[rt.path] = append(byPath[rt.path], rt.method)
	}
	for path, methods := range byPath {
		s.mux.HandleFunc(path, methodNotAllowed(methods))
	}
	return s, nil
}

// methodNotAllowed answers a known path with an unregistered method:
// 405, an Allow header listing what the path supports, and the uniform
// JSON error body.
func methodNotAllowed(allow []string) http.HandlerFunc {
	sort.Strings(allow)
	allowHeader := strings.Join(allow, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allowHeader)
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("method %s not allowed for %s (allow: %s)", r.Method, r.URL.Path, allowHeader))
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetricsScrape serves the live metric registry in the Prometheus
// text exposition format: every store/engine/block-tier series plus the
// HTTP and admission series the daemon itself maintains.
func (s *server) handleMetricsScrape(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = cutfit.WriteMetrics(w)
}

// persist atomically writes the session snapshot (graph registry included)
// to <dataDir>/cutfitd.snap via a temp file + rename, so a crash mid-write
// can never clobber the previous good snapshot.
func (s *server) persist() (cutfit.SnapshotSummary, error) {
	if s.dataDir == "" {
		return cutfit.SnapshotSummary{}, fmt.Errorf("snapshots need the daemon started with -data-dir")
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.mu.RLock()
	names := make(map[string]*cutfit.Graph, len(s.graphs))
	for name, e := range s.graphs {
		names[name] = e.g
	}
	s.mu.RUnlock()
	path := filepath.Join(s.dataDir, snapshotFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return cutfit.SnapshotSummary{}, err
	}
	sum, err := s.session.SnapshotNamed(f, names)
	if err == nil {
		// fsync before the rename: without it a system crash shortly after
		// the rename could surface an empty file at the final path, and a
		// corrupt snapshot deliberately fails the next boot.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return cutfit.SnapshotSummary{}, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return cutfit.SnapshotSummary{}, err
	}
	return sum, nil
}

// snapshotReply reports a persisted snapshot.
type snapshotReply struct {
	Path      string `json:"path"`
	Graphs    int    `json:"graphs"`
	Artifacts int    `json:"artifacts"`
	Bytes     int64  `json:"bytes"`
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sum, err := s.persist()
	if err != nil {
		status := http.StatusInternalServerError
		if s.dataDir == "" {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotReply{
		Path:      filepath.Join(s.dataDir, snapshotFile),
		Graphs:    sum.Graphs,
		Artifacts: sum.Artifacts,
		Bytes:     sum.Bytes,
	})
}

// errorReply is the uniform error body. Code is the stable
// error-taxonomy slug (see codeForStatus in middleware.go); Error is
// the human-readable detail.
type errorReply struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorReply{Error: err.Error(), Code: codeForStatus(status)})
}

// maxRequestBytes caps request bodies: generous for inline edge lists
// (a ~64 MiB list is a few million edges) while keeping one
// unauthenticated POST from exhausting the daemon's memory.
const maxRequestBytes = 64 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		// A body over the cap is the client sending too much, not sending
		// malformed JSON — it gets 413, and MaxBytesReader has already set
		// Connection: close so the half-read body is not misread as the
		// next request.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// lookup resolves a registered graph by name.
func (s *server) lookup(name string) (*graphEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("unknown graph %q (register it via POST /v1/graphs)", name)
	}
	return e, nil
}

// register installs a graph under name. Cached artifacts of a replaced
// graph are forgotten only once no registered name references it anymore:
// re-registering the same memoized dataset graph (old.g == g) or replacing
// one of several names sharing a graph must not wipe the live cache.
func (s *server) register(name string, g *cutfit.Graph) *graphEntry {
	e := &graphEntry{g: g, vertices: g.NumVertices(), edges: g.NumLiveEdges()}
	s.mu.Lock()
	old := s.graphs[name]
	s.graphs[name] = e
	var forget *cutfit.Graph
	if old != nil && old.g != g {
		forget = old.g
		for _, other := range s.graphs {
			if other.g == forget {
				forget = nil
				break
			}
		}
	}
	s.mu.Unlock()
	if forget != nil {
		s.session.Forget(forget)
	}
	return e
}

// registerDataset builds a named analog dataset and registers it.
func (s *server) registerDataset(name, dataset string) (*graphEntry, error) {
	spec, err := cutfit.DatasetByName(dataset)
	if err != nil {
		return nil, err
	}
	g, err := spec.BuildCached()
	if err != nil {
		return nil, err
	}
	return s.register(name, g), nil
}

// registerBlockGraph opens an on-disk block graph (a cutfit.SaveBlockGraph
// file) and registers it under name. Blocks are served straight from the
// file — only the index and vertex list are heap-resident — so a daemon can
// serve graphs far larger than its cache budget. The file handle is held
// for the life of the process (appends densify the graph first, after which
// the file is no longer read, but the original generation may still be
// serving in-flight requests).
func (s *server) registerBlockGraph(name, path string) (*graphEntry, error) {
	g, closer, err := cutfit.OpenBlockGraph(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.blockFiles = append(s.blockFiles, closer)
	s.mu.Unlock()
	return s.register(name, g), nil
}

type registerRequest struct {
	Name    string `json:"name"`
	Dataset string `json:"dataset,omitempty"`
	Edges   string `json:"edges,omitempty"`
}

type graphReply struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

func (s *server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("graph name is required"))
		return
	}
	var (
		e   *graphEntry
		err error
	)
	switch {
	case req.Dataset != "" && req.Edges != "":
		err = fmt.Errorf("use either dataset or edges, not both")
	case req.Dataset != "":
		e, err = s.registerDataset(req.Name, req.Dataset)
	case req.Edges != "":
		var g *cutfit.Graph
		if g, err = cutfit.LoadEdgeList(strings.NewReader(req.Edges)); err == nil {
			e = s.register(req.Name, g)
		}
	default:
		err = fmt.Errorf("one of dataset or edges is required")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, graphReply{Name: req.Name, Vertices: e.vertices, Edges: e.edges})
}

// appendRequest carries an edge batch in the same SNAP-style edge-list
// encoding the register endpoint accepts (an optional third column weights
// each edge), plus the sliding-window expiry bound. ExpireBefore > 0
// additionally retires every live edge older than the graph's
// expire_before-th append — append and expiry land in ONE generation step.
// Edges may be empty when expire_before is set (pure expiry).
type appendRequest struct {
	Edges        string `json:"edges,omitempty"`
	ExpireBefore int    `json:"expire_before,omitempty"`
}

// appendReply reports the advanced graph plus how many edges the batch
// added and the window step expired. Edges counts live (unexpired) edges.
type appendReply struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Added    int    `json:"added"`
	Expired  int    `json:"expired,omitempty"`
}

// handleAppendEdges streams an edge batch into a registered graph:
// POST /v1/graphs/{name}/edges. The registry entry is replaced by the next
// graph generation (Session.AppendEdges, or Session.SlideWindow when the
// request carries expire_before); the previous generation is deliberately
// NOT forgotten — its cached artifacts are what the session's delta chain
// extends/patches, so a run after an append or expiry costs O(batch)
// instead of a cold re-partition. Requests already running against the old
// generation are unaffected.
//
// The O(|E|) generation step runs outside the registry lock — the lock is
// held only for the lookup and the swap, so appends never stall handlers
// for other graphs. Racing appends to one name are resolved
// compare-and-swap style: a loser re-derives from the winner's generation,
// so no batch is lost (TestServerConcurrentAppendsAndRuns).
func (s *server) handleAppendEdges(w http.ResponseWriter, r *http.Request) {
	var req appendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Edges == "" && req.ExpireBefore <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("edges or expire_before is required"))
		return
	}
	if req.ExpireBefore < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("expire_before must be non-negative"))
		return
	}
	var batch []cutfit.Edge
	var weights []float64
	if req.Edges != "" {
		parsed, err := cutfit.LoadEdgeList(strings.NewReader(req.Edges))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		batch, weights = parsed.Edges(), parsed.Weights()
	}
	name := r.PathValue("name")
	releaseGraph, ok := s.admitGraph(w, r, name)
	if !ok {
		return
	}
	defer releaseGraph()
	for {
		e, err := s.lookup(name)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		oldLive := e.g.NumLiveEdges()
		var ng *cutfit.Graph
		if req.ExpireBefore > 0 {
			ng, err = s.session.SlideWindow(e.g, batch, weights, req.ExpireBefore)
		} else {
			ng, err = s.session.AppendWeightedEdges(e.g, batch, weights)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ne := &graphEntry{g: ng, vertices: ng.NumVertices(), edges: ng.NumLiveEdges()}
		s.mu.Lock()
		if s.graphs[name] == e {
			s.graphs[name] = ne
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, appendReply{
				Name:     name,
				Vertices: ne.vertices,
				Edges:    ne.edges,
				Added:    len(batch),
				Expired:  oldLive + len(batch) - ng.NumLiveEdges(),
			})
			return
		}
		// Another append (or re-register) won the swap; drop the loser's
		// generation from the session (its delta record would otherwise
		// pin the discarded edge-list copy) and retry against the current
		// one.
		s.mu.Unlock()
		if ng != e.g {
			s.session.Forget(ng)
		}
	}
}

func (s *server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := make([]graphReply, 0, len(s.graphs))
	for name, e := range s.graphs {
		out = append(out, graphReply{Name: name, Vertices: e.vertices, Edges: e.edges})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

type metricsRequest struct {
	Graph    string `json:"graph"`
	Strategy string `json:"strategy"`
	Parts    int    `json:"parts"`
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var req metricsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	e, err := s.lookup(req.Graph)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	releaseGraph, ok := s.admitGraph(w, r, req.Graph)
	if !ok {
		return
	}
	defer releaseGraph()
	strat, err := cutfit.StrategyByName(req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	m, err := s.session.Measure(e.g, strat, req.Parts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rep := cutfit.NewMetricsReport(strat.Name(), req.Parts, m)
	rep.Graph = req.Graph
	writeJSON(w, http.StatusOK, rep)
}

type adviseRequest struct {
	Graph     string `json:"graph"`
	Algorithm string `json:"alg"`
	Parts     int    `json:"parts"`
	Measure   bool   `json:"measure,omitempty"`
}

func (s *server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req adviseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	e, err := s.lookup(req.Graph)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	releaseGraph, ok := s.admitGraph(w, r, req.Graph)
	if !ok {
		return
	}
	defer releaseGraph()
	profile, err := cutfit.ProfileFor(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rec := s.session.Advise(e.g, profile, req.Parts)
	rep := cutfit.NewAdviseReport(req.Algorithm, req.Parts, rec)
	rep.Graph = req.Graph
	if req.Measure {
		sel, err := s.session.Select(e.g, cutfit.Strategies(), req.Parts, profile)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if rep.Ranking, err = cutfit.RankFromSelection(sel, profile.Metric); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, rep)
}

type runRequest struct {
	Graph     string `json:"graph"`
	Algorithm string `json:"alg"`
	Strategy  string `json:"strategy"`
	Parts     int    `json:"parts"`
	// Iters is a pointer so an explicit 0 (cc: run to convergence) is
	// distinguishable from an absent field (default 10).
	Iters *int `json:"iters,omitempty"`
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !decodeBody(w, r, &req) {
		return
	}
	e, err := s.lookup(req.Graph)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	releaseGraph, ok := s.admitGraph(w, r, req.Graph)
	if !ok {
		return
	}
	defer releaseGraph()
	iters := 10
	if req.Iters != nil {
		iters = *req.Iters
	}
	var strat cutfit.Strategy
	if req.Strategy == "auto" {
		profile, err := cutfit.ProfileFor(req.Algorithm)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		sel, err := s.session.Select(e.g, cutfit.Strategies(), req.Parts, profile)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		strat = sel.Strategy
	} else {
		if strat, err = cutfit.StrategyByName(req.Strategy); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	rep, err := s.session.Run(r.Context(), e.g, strat, req.Parts, req.Algorithm, iters)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rep.Graph = req.Graph
	writeJSON(w, http.StatusOK, rep)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.session.CacheStats())
}

// clusterReply reports the daemon's execution mode and, when distributed,
// each attached worker's live health.
type clusterReply struct {
	Mode    string                `json:"mode"`
	Workers []cutfit.WorkerStatus `json:"workers,omitempty"`
}

// handleCluster reports whether runs dispatch locally or across an
// attached worker pool: GET /v1/cluster. With workers attached it polls
// every worker's health endpoint, so operators see a dead worker here
// before a run pays the fallback.
func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	pool := s.session.Workers()
	if pool == nil {
		writeJSON(w, http.StatusOK, clusterReply{Mode: "local"})
		return
	}
	writeJSON(w, http.StatusOK, clusterReply{
		Mode:    "distributed",
		Workers: pool.Status(r.Context()),
	})
}
