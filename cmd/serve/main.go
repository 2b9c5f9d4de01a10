// Command serve exposes the study engine over HTTP: experiment results,
// demand estimates and spread curves as JSON/CSV, with a bounded
// multi-study LRU, deterministic ETags and full 304 revalidation.
//
// Usage:
//
//	serve -addr :8080 -studies 4 -timeout 2m -max-inflight 64
//
// Endpoints (all GET; ?scale=small|default|large and ?seed=N select
// the study configuration):
//
//	/healthz                     liveness probe
//	/v1/experiments              registry metadata (id, title, needs)
//	/v1/experiments/{id}         one experiment's results (JSON envelope)
//	/v1/demand/{site}            per-entity demand estimates (json|csv)
//	/v1/spread/{domain}/{attr}   k-coverage curves (json|csv)
//	/v1/stats                    cache occupancy, build counters, timings
//	/metrics                     Prometheus text exposition: per-endpoint
//	                             latency histograms plus the process-wide
//	                             pipeline/segment/build series
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight
// requests.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	studies := flag.Int("studies", 4, "study LRU capacity: how many (scale, seed) configurations stay warm")
	maxInflight := flag.Int("max-inflight", 64, "bound on concurrently served requests")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request budget")
	workers := flag.Int("workers", 0, "per-study artifact build workers (0: GOMAXPROCS)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown budget for draining in-flight requests")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := serve.New(serve.Options{
		Studies:     *studies,
		MaxInFlight: *maxInflight,
		Timeout:     *timeout,
		Workers:     *workers,
		Logger:      log,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Info("listening", "addr", ln.Addr().String())

	errc := make(chan error, 1)
	go func() { errc <- srv.Start(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Info("shutting down", "signal", sig.String(), "drain", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return <-errc
	}
}
