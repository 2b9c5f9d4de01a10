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
//   - Marshaled response bodies are built once per ETag: concurrent
//     cold requests for one ETag share one build in flight, and its
//     body goes into a byte-bounded store keyed by ETag, so the
//     steady-state hot path is one store lookup and a byte-slice write.
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
// Determinism also shapes the failure path. Every committed body goes
// into a server-level body store keyed by its ETag, bounded in bytes
// (least recently stored bodies go first), and a request is answered
// from that store before any build is tried. A body whose study was
// evicted from the LRU is therefore served again without a rebuild,
// and a build fault never takes away a body already built. A failed
// cold build is not retried, and no option asks for retries: every
// build is a pure in-memory function of its inputs, so a second attempt
// would only heal an injected fault. The failure is answered with the
// 500/504 error envelope, and the store serves it for errTTL (1 s), so
// a persistently failing ETag is rebuilt at most once per errTTL
// however many requests ask for it.
//
// # Statuses
//
// A GET is answered 200 with a body, 304 when If-None-Match matches
// its ETag, 301 to the cleaned path, 400 for a query that does not
// parse, 404 for an unknown route, experiment, site, domain or
// attribute, 500 for a failed build or a panic, 503 when shed or
// abandoned, and 504 when its build outlives the request's budget.
// Other methods get 405. Every 4xx and 5xx that Handler writes carries
// the ErrorWire envelope.
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
	return o
}

// Server serves the study API. Create one with New; it is safe for
// concurrent use.
type Server struct {
	opts    Options
	log     *slog.Logger
	cache   *studyCache
	store   bodyStore
	flights memo.Map[string, *body] // cold builds in flight, by ETag
	metrics *metrics
	start   time.Time
	httpSrv *http.Server

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
	// now is the clock failure records expire by; tests replace it.
	now func() time.Time
}

// New returns a Server over opts.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		opts:    opts,
		log:     opts.Logger,
		cache:   newStudyCache(opts.Studies, opts.Workers),
		metrics: newMetrics(reg),
		start:   time.Now(),
		now:     time.Now,
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
