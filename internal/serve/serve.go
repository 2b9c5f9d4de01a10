// Package serve is the online front door of the reproduction: an HTTP
// API that exposes the experiment registry, demand estimates and
// attribute-spread curves of core.Study over JSON and CSV.
//
// The design exploits the engine's determinism. Every result is a pure
// function of (seed, config) — never of build order, worker count or
// interleaving — so responses are immutable once computed and aggressive
// caching is sound end to end:
//
//   - Studies live in a bounded LRU keyed by (scale, seed, extraction).
//     Distinct configurations are served concurrently; duplicate cold
//     requests for one configuration coalesce through the engine's
//     per-key singleflight memoization (internal/memo), so K concurrent
//     requests trigger exactly one artifact build.
//   - Marshaled response bodies are cached per (study, endpoint,
//     format), again with singleflight, so the steady-state hot path is
//     a byte-slice write.
//   - ETags derive from the study's stable config hash plus the
//     endpoint — not from the body — so an If-None-Match revalidation
//     is answered 304 before any study or body is touched.
//
// Production middleware bounds in-flight concurrency, enforces
// per-request timeouts via context, recovers panics, and emits
// structured access logs; Shutdown drains in-flight requests.
//
// # Graceful degradation
//
// Determinism also powers the failure path. Cold builds run under a
// retry policy (Options.Retry) and, per study, behind a circuit
// breaker: after BreakerThreshold consecutive failed builds the study's
// circuit opens and cold builds are refused for BreakerCooldown, then a
// single probe build tests recovery. Every freshly built body is also
// copied into a server-level stale store that survives LRU eviction and
// is bounded in bytes (least recently stored bodies go first); when a
// rebuild fails (or the circuit is open) the last good body is
// served with `Warning: 110 - "response is stale"` instead of an error
// — sound, because the body is a pure function of the config, so the
// stale bytes equal what the failed rebuild would have produced.
// Requests shed without a stale fallback carry Retry-After.
package serve

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/memo"
	"repro/internal/obs"
	// Linked for its metric registrations only: segment replay counters
	// must appear on /metrics (as zeros until a replay runs) even though
	// no serve endpoint replays segments yet.
	_ "repro/internal/seg"
)

// Options configures a Server. Zero values take production-sane
// defaults.
type Options struct {
	// Studies bounds the study LRU: how many (scale, seed, extraction)
	// configurations are kept warm (default 4).
	Studies int
	// MaxInFlight bounds concurrently served requests; excess requests
	// wait for a slot and fail 503 if their context ends first
	// (default 64).
	MaxInFlight int
	// Timeout is the per-request budget enforced via context
	// (default 2 minutes).
	Timeout time.Duration
	// Workers bounds each study's intra-artifact concurrency
	// (0: GOMAXPROCS). Results never depend on it.
	Workers int
	// Logger receives structured access and error logs
	// (nil: slog.Default()).
	Logger *slog.Logger
	// Retry governs cold body builds: attempts, backoff and the
	// negative-cache TTL that stops a known-bad build from being retried
	// per request. A zero policy (Attempts <= 0) takes the production
	// default: 2 attempts, 25ms base backoff capped at 1s, 1s error TTL.
	Retry memo.Policy
	// BreakerThreshold consecutive failed cold builds open a study's
	// circuit (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit refuses cold builds
	// before admitting a single probe (default 5s).
	BreakerCooldown time.Duration
}

func (o Options) withDefaults() Options {
	if o.Studies <= 0 {
		o.Studies = 4
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.Retry.Attempts <= 0 {
		o.Retry = memo.Policy{
			Attempts:  2,
			BaseDelay: 25 * time.Millisecond,
			MaxDelay:  time.Second,
			ErrTTL:    time.Second,
		}
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	return o
}

// Server serves the study API. Create one with New; it is safe for
// concurrent use.
type Server struct {
	opts    Options
	log     *slog.Logger
	cache   *studyCache
	stale   staleStore
	metrics *metrics
	start   time.Time
	httpSrv *http.Server

	// Degradation counters: stale bodies served in place of a failed
	// rebuild, and requests short-circuited by an open breaker.
	cStale       *obs.Counter
	cBreakerOpen *obs.Counter

	// Scrape-time serve-level gauges on the server's own registry
	// (demand/seg/core metrics live on obs.Default; /metrics renders
	// both). Set from the cache snapshot when /metrics is scraped.
	gCachedStudies *obs.Gauge
	gEvictions     *obs.Gauge
	gUptime        *obs.Gauge

	// testDelay, when set (tests only), runs inside the instrumented
	// handler before the endpoint logic — a hook to hold requests
	// in-flight for shutdown-drain tests.
	testDelay func(endpoint string)
}

// New returns a Server over opts.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		opts:    opts,
		log:     opts.Logger,
		cache:   newStudyCache(opts.Studies, opts.Workers, opts.BreakerThreshold, opts.BreakerCooldown),
		metrics: newMetrics(reg),
		start:   time.Now(),
		cStale: reg.Counter("repro_serve_stale_total",
			"Stale bodies served in place of a failed or circuit-broken rebuild"),
		cBreakerOpen: reg.Counter("repro_serve_breaker_open_total",
			"Requests refused a cold build by an open per-study circuit breaker"),
		gCachedStudies: reg.Gauge("repro_serve_cached_studies",
			"Study configurations currently warm in the LRU"),
		gEvictions: reg.Gauge("repro_serve_study_evictions",
			"Study configurations evicted from the LRU since start"),
		gUptime: reg.Gauge("repro_serve_uptime_seconds",
			"Seconds since the server started"),
	}
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Start serves HTTP on ln until Shutdown. It returns nil after a clean
// Shutdown.
func (s *Server) Start(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and calls Start.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Start(ln)
}

// Shutdown stops accepting new connections and blocks until in-flight
// requests drain or ctx expires (returning ctx's error in that case).
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}
