// Command doppeld serves the simulator as a single-node HTTP service:
// single runs, whole experiment-matrix sweeps, contract-lattice leakage
// sweeps, coverage-guided campaigns, checkpoints, stored results, health and
// engine statistics. Every simulation funnels through one shared execution
// engine, so concurrent clients share a bounded worker pool and an LRU
// result cache — a repeated sweep costs nothing but cache lookups. On
// SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests before exiting.
//
//	doppeld -addr :8080 -workers 8
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/run \
//	    -d '{"workload":"stream","scheme":"dom","ap":true,"scale":"test"}'
//	curl -s -X POST localhost:8080/v1/sweep -d '{"scale":"test"}'
//	curl -s localhost:8080/v1/results/sweep-1
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/metrics          # Prometheus text format
//	curl -s -X POST localhost:8080/v1/run \
//	    -d '{"workload":"stream","scale":"test","trace":true}'   # with events
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"doppelganger/internal/engine"
	"doppelganger/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], log.Printf, nil); err != nil {
		log.Fatalf("doppeld: %v", err)
	}
}

// run is the whole server lifecycle, separated from main so tests can boot
// the server in-process: parse flags, listen, serve until ctx is cancelled,
// then shut down gracefully (drain in-flight requests, then close the
// engine). When ready is non-nil it receives the bound listen address once
// serving.
func run(ctx context.Context, args []string, logf func(string, ...any), ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("doppeld", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		workers   = fs.Int("workers", 0, "engine worker-pool size (0 = one per CPU)")
		cacheSize = fs.Int("cache", engine.DefaultCacheSize, "result-cache capacity in entries (negative disables)")
		jobLimit  = fs.Duration("job-timeout", 0, "per-job wall-clock budget (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	met := sim.NewMetrics()
	eng := engine.New(engine.Options{
		Workers:    *workers,
		CacheSize:  *cacheSize,
		JobTimeout: *jobLimit,
		Metrics:    met,
	})
	defer eng.Close()
	hs := &http.Server{Handler: newServer(eng, met).handler()}

	// Listen explicitly (rather than ListenAndServe) so -addr :0 works:
	// the kernel-chosen port is in ln.Addr, and the log line below is the
	// contract scripts/smoke.sh parses to find the server.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logf("doppeld: listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logf("doppeld: shutting down")
	// Shutdown drains in-flight requests: a sweep already running completes
	// and its response is written before the listener reports closed.
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("doppeld: shutdown: %v", err)
	}
	return nil
}
