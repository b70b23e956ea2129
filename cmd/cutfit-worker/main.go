// Command cutfit-worker is the per-node process of a distributed cutfit
// cluster: it holds the shard containers a coordinator (cutfitd started
// with -workers) ships to it, runs the per-partition compute phase of
// each superstep against them, and answers reduce frames of
// combiner-pre-aggregated messages. One worker serves many runs and
// many graph generations concurrently; shards are content-addressed, so
// a re-run on an unchanged graph ships nothing and a run on a new
// generation (after an append or a window slide) ships its shard once.
//
// Usage:
//
//	cutfit-worker [-addr :9090]
//
// Endpoints (see docs/DISTRIBUTED.md for the wire protocol):
//
//	GET  /dist/v1/healthz                 liveness + resident shard count
//	POST /dist/v1/shards                  install a full shard container
//	POST /dist/v1/runs                    bind a run to a resident shard
//	POST /dist/v1/runs/{id}/step          one superstep: broadcast frame in,
//	                                      reduce frame out
//	POST /dist/v1/runs/{id}/finish        release the run's state
//	GET  /metrics                         worker-side dist metric series in
//	                                      the Prometheus text format
//
// The worker is stateless across restarts by design: a coordinator that
// finds its shard evicted (404 on run start) re-ships it and retries, so
// killing and restarting workers is always safe.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cutfit/internal/dist"
	"cutfit/internal/obsv"
)

// shutdownGrace bounds how long in-flight supersteps may run after a
// termination signal.
const shutdownGrace = 10 * time.Second

// newHTTPServer is the worker's listener configuration, the daemon's: a
// client gets ten seconds to finish its request headers and an idle
// keep-alive connection is closed after two minutes — the coordinator keeps
// one per worker between supersteps and reconnects transparently after a
// longer pause — and there is no WriteTimeout, because a superstep on a large
// shard may legitimately take minutes to answer.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	worker := dist.NewWorker()
	mux := http.NewServeMux()
	mux.Handle("/dist/v1/", worker.Handler())
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obsv.Default.WritePrometheus(w)
	})

	httpSrv := newHTTPServer(*addr, mux)
	errCh := make(chan error, 1)
	go func() {
		logger.Info("cutfit-worker listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "cutfit-worker:", err)
			os.Exit(1)
		}
	case sig := <-sigCh:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
	}
}
