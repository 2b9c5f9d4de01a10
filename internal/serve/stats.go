package serve

import (
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// endpointNames is the fixed instrumentation vocabulary: every route
// registers under one of these in Handler(). Fixing the set lets
// newMetrics prebuild each endpoint's obs series, so the per-request
// observe path is a read-only map hit plus atomic updates — no lock,
// unlike the mutex-guarded map this replaced.
var endpointNames = []string{"healthz", "experiments", "experiment", "demand", "spread", "stats", "metrics"}

// metrics is the server's per-endpoint request telemetry, backed by a
// per-Server obs.Registry (so concurrent test servers never share
// state) and rendered both as /v1/stats JSON and /metrics exposition.
type metrics struct {
	reg *obs.Registry
	by  map[string]*endpointMetrics // immutable after newMetrics
}

// endpointMetrics holds one endpoint's series. The latency histogram's
// exact count/sum/max carry the /v1/stats count, mean and max; its
// buckets carry the /metrics latency distribution.
type endpointMetrics struct {
	latency *obs.Histogram
	notMod  *obs.Counter
	errs    *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{reg: reg, by: make(map[string]*endpointMetrics, len(endpointNames))}
	for _, name := range endpointNames {
		l := obs.L("endpoint", name)
		m.by[name] = &endpointMetrics{
			latency: reg.Histogram("repro_http_request_seconds", "Request latency by endpoint", 1e-9, l),
			notMod:  reg.Counter("repro_http_not_modified_total", "304 revalidation responses by endpoint", l),
			errs:    reg.Counter("repro_http_errors_total", "Responses with status >= 400 by endpoint", l),
		}
	}
	return m
}

func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	e := m.by[endpoint]
	if e == nil {
		return // unregistered endpoint name: a programming error, not worth a lock to track
	}
	e.latency.ObserveDuration(d)
	if status == http.StatusNotModified {
		e.notMod.Inc()
	}
	if status >= 400 {
		e.errs.Inc()
	}
}

// EndpointStats is one endpoint's aggregate request timings on the
// /v1/stats wire.
type EndpointStats struct {
	Endpoint    string  `json:"endpoint"`
	Count       int64   `json:"count"`
	NotModified int64   `json:"not_modified"`
	Errors      int64   `json:"errors"`
	MeanMS      float64 `json:"mean_ms"`
	MaxMS       float64 `json:"max_ms"`
}

// snapshot derives the wire stats from the obs series. Count, mean and
// max come from the histogram's exact atomics (not bucket estimates),
// so the numbers match what the replaced mutex aggregation reported.
// Endpoints never hit are skipped, as before.
func (m *metrics) snapshot() []EndpointStats {
	out := make([]EndpointStats, 0, len(m.by))
	for name, e := range m.by {
		n := e.latency.Count()
		if n == 0 {
			continue
		}
		out = append(out, EndpointStats{
			Endpoint:    name,
			Count:       int64(n),
			NotModified: int64(e.notMod.Value()),
			Errors:      int64(e.errs.Value()),
			MeanMS:      e.latency.Mean() / 1e6,
			MaxMS:       float64(e.latency.Max()) / 1e6,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// StudyStats describes one cached study on the /v1/stats wire.
type StudyStats struct {
	Scale      string          `json:"scale"`
	Seed       uint64          `json:"seed"`
	ConfigHash string          `json:"config_hash"`
	Builds     core.BuildStats `json:"builds"`
}

// StatsWire is the GET /v1/stats JSON document: cache occupancy,
// per-study build counters (the singleflight observability surface) and
// per-endpoint request timings.
type StatsWire struct {
	UptimeMS      float64         `json:"uptime_ms"`
	CacheCapacity int             `json:"cache_capacity"`
	Evictions     int             `json:"evictions"`
	Studies       []StudyStats    `json:"studies"`
	Endpoints     []EndpointStats `json:"endpoints"`
}

// Stats snapshots the server's observable state. It is what /v1/stats
// serves; tests use it to assert request coalescing via BuildStats.
func (s *Server) Stats() StatsWire {
	entries, evictions := s.cache.snapshot()
	wire := StatsWire{
		UptimeMS:      float64(time.Since(s.start).Microseconds()) / 1000,
		CacheCapacity: s.opts.Studies,
		Evictions:     evictions,
		Endpoints:     s.metrics.snapshot(),
	}
	for _, e := range entries {
		wire.Studies = append(wire.Studies, StudyStats{
			Scale:      e.key.Scale,
			Seed:       e.key.Seed,
			ConfigHash: e.cfg.Hash(),
			Builds:     e.study.BuildStats(),
		})
	}
	return wire
}
