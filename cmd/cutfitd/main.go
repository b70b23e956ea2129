// Command cutfitd is the long-running serving daemon of the Cut-to-Fit
// library: it holds a cutfit.Session — the keyed artifact cache with
// single-flight builds plus the engine's pooled scratch buffers — and
// serves partitioning measurement, strategy advice and algorithm execution
// over HTTP/JSON. Concurrent identical requests cost one partitioning pass
// total; repeated requests are cache hits; concurrent runs on one cached
// topology reuse pooled engine buffers.
//
// Usage:
//
//	cutfitd [-addr :8080] [-cache-mb 512] [-preload youtube,roadnet-ca] [-block-graph social=/data/social.cfb] [-data-dir /var/lib/cutfitd]
//
// With -data-dir the daemon is durable: evicted cache entries spill to
// <dir>/cache/ (and satisfy later misses from disk), POST /v1/snapshot and
// graceful shutdown (SIGINT/SIGTERM) write <dir>/cutfitd.snap — a
// versioned, CRC-checked snapshot of the graph registry and every cached
// assignment, metric set and built topology — and the next boot
// warm-starts from it, so a restarted daemon serves /v1/run without
// re-partitioning anything.
//
// GOMAXPROCS, set in the environment and read by the Go runtime before main
// runs, is the one worker count of the process: every ingest, hash
// assignment, build, run, selection and restore fans out over it.
//
// -block-graph registers graphs from on-disk block-graph files (written by
// cutfit.SaveBlockGraph): name=path pairs, comma-separated, repeatable.
// The graph's edge blocks are served straight from the file for the life
// of the process — only the block index and vertex list are heap-resident
// — so the daemon can serve graphs far larger than memory.
//
// Endpoints (request and response bodies are JSON; the response structs
// are the same cutfit.MetricsReport / AdviseReport / RunReport encodings
// the cutfit CLI prints with -json):
//
//	POST /v1/graphs   {"name": "g", "dataset": "youtube"}   register an analog dataset
//	POST /v1/graphs   {"name": "g", "edges": "0 1\n1 2"}    register an inline edge list
//	GET  /v1/graphs                                         list registered graphs
//	POST /v1/graphs/{name}/edges  {"edges": "2 3\n3 4"}     append an edge batch: the
//	                  graph advances to a new generation whose artifacts are
//	                  derived from the previous one's (suffix-only assignment,
//	                  patched topology) — a run after an append costs O(batch),
//	                  not a cold re-partition; in-flight requests keep reading
//	                  the old generation. Edges have no weight: a line with a
//	                  third column is refused with a 400 naming the line
//	                  (here and on registration). An "expire_before": N field
//	                  tombstones every edge position below N while appending —
//	                  sliding-window serving in one generation step; the reply's
//	                  "expired" counts retired edges and "edges" is the live
//	                  count. "edges" may be omitted for a pure expiry.
//	POST /v1/metrics  {"graph", "strategy", "parts"}        §3.1 metric set
//	POST /v1/advise   {"graph", "alg", "parts", "measure"}  recommendation (+ measured ranking)
//	POST /v1/run      {"graph", "alg", "strategy", "parts", "iters"}
//	                  execute an algorithm (pagerank, dynamicpr, cc,
//	                  triangles, sssp); "strategy": "auto" selects empirically
//	POST /v1/snapshot                                       persist registry + cache to
//	                  <data-dir>/cutfitd.snap (requires -data-dir); replies with
//	                  the graph/artifact counts and encoded bytes
//	GET  /v1/stats                                          cache hit/miss/eviction counters,
//	                  including the disk tier's diskHits/diskBytes
//	GET  /v1/cluster                                        execution mode ("local" or
//	                  "distributed") plus each attached worker's live health
//	GET  /metrics                                           live metric series in the Prometheus
//	                  text format: store/engine/block-tier counters and histograms
//	                  plus per-endpoint request, latency and admission series
//	GET  /healthz
//
// The full HTTP reference (request/response schemas, the error-code
// taxonomy, curl examples) is docs/API.md; the operator runbook and the
// metrics catalog are docs/OPERATIONS.md.
//
// # Serving hardening
//
// Every request gets an X-Request-ID (caller-provided IDs are echoed)
// and one structured log line (log/slog, text format on stderr).
// Admission control bounds concurrent work: -max-concurrent requests
// daemon-wide and -graph-concurrent per target graph may run at once;
// over-limit requests wait in a bounded queue (-admission-queue) up to
// -admission-timeout, then receive 429 with a Retry-After header.
// /healthz and /metrics are exempt so a saturated daemon stays
// observable. The benchmark's serve-hot workload (benchmark/README.md)
// drives a real daemon and reports per-operation latency quantiles.
//
// # Distributed runs
//
// With -workers http://host:9090,http://host:9091 the daemon dispatches
// pagerank, dynamicpr and cc supersteps across cutfit-worker processes
// (see cmd/cutfit-worker and docs/DISTRIBUTED.md). Distributed results
// are bit-identical to local ones; if any worker fails mid-run the
// daemon logs an ERROR and transparently re-runs locally, so a worker
// loss degrades throughput but never correctness or availability.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cutfit/internal/algorithms"
)

// shutdownGrace bounds how long in-flight requests may run after a
// termination signal before the final snapshot is taken.
const shutdownGrace = 10 * time.Second

// newHTTPServer is the daemon's listener configuration. A client gets ten
// seconds to finish its request headers and an idle keep-alive connection is
// closed after two minutes, so stalled or abandoned connections cannot pile
// up; there is no WriteTimeout, because a run on a large graph may
// legitimately take minutes to answer.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

// stringList is a repeatable comma-separated flag value.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			*l = append(*l, s)
		}
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheMB := flag.Int64("cache-mb", 0, "artifact cache budget in MiB (0 = default 512, negative = unbounded)")
	preload := flag.String("preload", "", "comma-separated analog dataset names to register at boot under their own names")
	dataDir := flag.String("data-dir", "", "durability directory: disk cache tier under <dir>/cache, warm-start snapshot at <dir>/cutfitd.snap (empty = in-memory only)")
	maxConcurrent := flag.Int("max-concurrent", 0, "daemon-wide concurrent request bound (0 = default 64, negative = unlimited)")
	graphConcurrent := flag.Int("graph-concurrent", 0, "per-graph concurrent request bound (0 = default 32, negative = unlimited)")
	admissionQueue := flag.Int("admission-queue", 0, "bounded wait-queue size for over-limit requests (0 = default 256, negative = no queue)")
	admissionTimeout := flag.Duration("admission-timeout", 0, "how long a queued request waits for a slot before 429 (0 = default 2s)")
	var blockGraphs stringList
	flag.Var(&blockGraphs, "block-graph", "name=path of an on-disk block-graph file to register at boot, served straight from the file (comma-separated, repeatable)")
	var workers stringList
	flag.Var(&workers, "workers", "cutfit-worker base URLs (comma-separated, repeatable); non-empty enables distributed runs for "+algorithms.NameList(algorithms.ClusterServed(), "and")+" with local fallback")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv, err := newServer(serverOptions{
		cacheBytes:      *cacheMB * (1 << 20),
		dataDir:         *dataDir,
		maxConcurrent:   *maxConcurrent,
		graphConcurrent: *graphConcurrent,
		maxQueue:        *admissionQueue,
		queueTimeout:    *admissionTimeout,
		logger:          logger,
		workers:         workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cutfitd:", err)
		os.Exit(1)
	}
	if n := len(srv.graphs); n > 0 {
		log.Printf("warm start: restored %d graphs from %s", n, *dataDir)
	}
	if *preload != "" {
		for _, name := range strings.Split(*preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			n, err := srv.registerDataset(name, name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cutfitd: preload:", err)
				os.Exit(1)
			}
			log.Printf("preloaded %s: %d vertices, %d edges", name, n.vertices, n.edges)
		}
	}
	for _, spec := range blockGraphs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fmt.Fprintf(os.Stderr, "cutfitd: -block-graph %q: want name=path\n", spec)
			os.Exit(1)
		}
		n, err := srv.registerBlockGraph(name, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cutfitd: block graph:", err)
			os.Exit(1)
		}
		log.Printf("opened block graph %s from %s: %d vertices, %d edges", name, path, n.vertices, n.edges)
	}

	httpSrv := newHTTPServer(*addr, srv)
	errCh := make(chan error, 1)
	go func() {
		log.Printf("cutfitd listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "cutfitd:", err)
			os.Exit(1)
		}
	case sig := <-sigCh:
		log.Printf("received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		cancel()
		if *dataDir != "" {
			sum, err := srv.persist()
			if err != nil {
				log.Printf("final snapshot failed: %v", err)
				os.Exit(1)
			}
			log.Printf("persisted %d graphs, %d artifacts (%d bytes) to %s", sum.Graphs, sum.Artifacts, sum.Bytes, *dataDir)
		}
	}
}
