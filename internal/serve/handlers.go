package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/fail"
	"repro/internal/logs"
	"repro/internal/obs"
	"repro/internal/report"
)

const (
	ctJSON = "application/json; charset=utf-8"
	ctCSV  = "text/csv; charset=utf-8"
)

// Failpoints at the serving layer's two trust boundaries: fpHandler
// fires inside every instrumented endpoint (an armed panic exercises
// Recover end to end), fpColdBuild fires inside the body builder —
// the exact fault the retry policy, circuit breaker and stale store
// exist to absorb.
var (
	fpHandler   = fail.Register("serve/handler")
	fpColdBuild = fail.Register("serve/coldbuild")
)

// Handler returns the server's routed and middleware-wrapped handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /v1/experiments", s.instrument("experiments", s.handleExperimentList))
	mux.Handle("GET /v1/experiments/{id}", s.instrument("experiment", s.handleExperiment))
	mux.Handle("GET /v1/demand/{site}", s.instrument("demand", s.handleDemand))
	mux.Handle("GET /v1/spread/{domain}/{attr}", s.instrument("spread", s.handleSpread))
	mux.Handle("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	// Timeout wraps Limit so a request's budget covers its time queued
	// for a slot: when the pool is saturated, waiters are shed 503 at
	// their deadline instead of piling up unboundedly.
	return Chain(mux,
		AccessLog(s.log),
		Recover(s.log),
		Timeout(s.opts.Timeout),
		Limit(s.opts.MaxInFlight),
	)
}

// instrument records per-endpoint request timings (surfaced by
// /v1/stats) around h.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.testDelay != nil {
			s.testDelay(endpoint)
		}
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		if err := fpHandler.Fail(); err != nil {
			writeError(sw, http.StatusInternalServerError, "%v", err)
		} else {
			h(sw, r)
		}
		s.metrics.observe(endpoint, sw.wroteStatus(), time.Since(t0))
	})
}

// ErrorWire is the structured envelope every error response carries:
// a human-readable message plus the status echoed into the body, so a
// client that lost the status line (proxy rewrites, logged bodies) can
// still classify the failure.
type ErrorWire struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorWire{Error: fmt.Sprintf(format, args...), Status: status})
}

// writeBuildError maps a failure to a status: timeout budget exhausted
// → 504, request abandoned → 503, otherwise → 500.
func writeBuildError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	}
	writeError(w, status, "%v", err)
}

// parseFormat validates ?format against the endpoint's supported wire
// formats (the first is the default).
func parseFormat(r *http.Request, supported ...string) (string, error) {
	f := r.URL.Query().Get("format")
	if f == "" {
		return supported[0], nil
	}
	for _, s := range supported {
		if f == s {
			return f, nil
		}
	}
	return "", fmt.Errorf("unsupported format %q (supported: %v)", f, supported)
}

// retryAfterSeconds renders a wait as a Retry-After header value:
// whole seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// writeStale serves a retained last-good body in place of a failed
// rebuild. It carries the normal success headers — the body is
// deterministic, so the config-derived ETag is still the truth and a
// later revalidation correctly 304s — plus the RFC 7234 staleness
// warning that tells caches and clients the origin could not rebuild.
func (s *Server) writeStale(w http.ResponseWriter, b *body, cfg core.Config) {
	s.cStale.Inc()
	h := w.Header()
	h.Set("ETag", b.etag)
	h.Set("X-Config-Hash", cfg.Hash())
	h.Set("Content-Type", b.contentType)
	h.Set("Warning", `110 - "response is stale"`)
	_, _ = w.Write(b.data)
}

// serveCached is the shared path of every study-backed endpoint: parse
// the study key, answer If-None-Match revalidations 304 straight from
// the deterministic ETag (no study or body is touched), otherwise serve
// the response body from the per-(study, endpoint, format) cache,
// building it at most once however many requests race.
//
// The failure path degrades in order of preference: a failed build is
// retried per s.opts.Retry; a build that still fails is answered with
// the stale store's last good body (Warning: 110) when one exists;
// repeated failures open the study's circuit breaker, which
// short-circuits cold builds to the stale body or a 503 with
// Retry-After until a cooldown admits a probe.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, format string,
	build func(ctx context.Context, e *studyEntry) ([]byte, string, error)) {

	key, err := parseStudyKey(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg := configFor(key, s.opts.Workers)
	etag := ETagFor(cfg, endpoint, format)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if err := r.Context().Err(); err != nil {
		writeBuildError(w, err)
		return
	}
	e := s.cache.get(key)
	bk := bodyKey{endpoint: endpoint, format: format}
	sk := staleKey{study: key, body: bk}

	// Breaker gate: only a cold build consults the circuit. A committed
	// body serves regardless of breaker state — degradation never takes
	// away what is already built.
	if _, ok := e.bodies.Cached(bk); !ok {
		if ok, wait := e.breaker.allow(); !ok {
			s.cBreakerOpen.Inc()
			if st, found := s.stale.get(sk); found {
				s.writeStale(w, st, cfg)
				return
			}
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			writeError(w, http.StatusServiceUnavailable,
				"study %s unavailable: cold builds suspended after repeated failures", key)
			return
		}
	}
	// The build runs on a context detached from this request, budgeted
	// by the server's own timeout: coalesced waiters share one build
	// through the memo layer, so one client's disconnect must not
	// cancel — and thereby fail — the result every other waiter
	// receives. The request still honors its own deadline via the
	// select below; if it fires first the build keeps running and
	// caches the body for the next request.
	type outcome struct {
		b   *body
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		attempted := false
		b, err := e.bodies.GetRetry(bk, func() (*body, error) {
			attempted = true
			if ferr := fpColdBuild.Fail(); ferr != nil {
				return nil, ferr
			}
			ctx, cancel := context.WithTimeout(context.Background(), s.opts.Timeout)
			defer cancel()
			data, contentType, err := build(ctx, e)
			if err != nil {
				return nil, err
			}
			return &body{data: data, contentType: contentType, etag: etag}, nil
		}, s.opts.Retry)
		// Only a real build attempt feeds the breaker and the stale
		// store — not cache hits, coalesced waits or negative-cache
		// answers — and it is recorded here, in the detached goroutine,
		// so a request that abandons the select below still reports its
		// build's fate.
		if attempted {
			e.breaker.record(err == nil)
			if err == nil {
				s.stale.put(sk, b)
			}
		}
		done <- outcome{b, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			if st, found := s.stale.get(sk); found {
				s.writeStale(w, st, cfg)
				return
			}
			writeBuildError(w, out.err)
			return
		}
		// Success headers only: an error response must not carry the
		// config-derived ETag, or a cache could revalidate it forever.
		h := w.Header()
		h.Set("ETag", out.b.etag)
		h.Set("X-Config-Hash", cfg.Hash())
		h.Set("Content-Type", out.b.contentType)
		_, _ = w.Write(out.b.data)
	case <-r.Context().Done():
		writeBuildError(w, r.Context().Err())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// experimentList marshals the static registry metadata exactly once;
// its ETag hashes the marshaled bytes since no study config is
// involved.
var experimentList = sync.OnceValues(func() ([]byte, string) {
	data, err := json.MarshalIndent(core.ExperimentInfos(), "", "  ")
	if err != nil {
		panic(err) // static registry metadata always marshals
	}
	sum := sha256.Sum256(data)
	return data, `"` + hex.EncodeToString(sum[:8]) + `"`
})

// handleExperimentList serves the registry metadata. The list depends
// only on the binary.
func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	data, etag := experimentList()
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", ctJSON)
	_, _ = w.Write(data)
}

// handleExperiment runs one registry experiment for the requested study
// configuration and serves the shared JSON wire document (the same
// Envelope `analyze -json` emits).
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := core.LookupExperiment(id); !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q", id)
		return
	}
	if _, err := parseFormat(r, "json"); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveCached(w, r, "experiment/"+id, "json",
		func(ctx context.Context, e *studyEntry) ([]byte, string, error) {
			rep, err := e.study.RunExperiments(ctx, []string{id}, s.opts.Workers)
			if err != nil {
				return nil, "", err
			}
			var buf bytes.Buffer
			if err := report.WriteJSON(&buf, e.study, rep); err != nil {
				return nil, "", err
			}
			return buf.Bytes(), ctJSON, nil
		})
}

// handleDemand serves one site's per-entity demand estimates as JSON or
// CSV.
func (s *Server) handleDemand(w http.ResponseWriter, r *http.Request) {
	site := logs.Site(r.PathValue("site"))
	if !site.Valid() {
		writeError(w, http.StatusNotFound, "unknown site %q (known: %v)", site, logs.Sites)
		return
	}
	format, err := parseFormat(r, "json", "csv")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveCached(w, r, "demand/"+string(site), format,
		func(ctx context.Context, e *studyEntry) ([]byte, string, error) {
			ests, err := e.study.Demand(site)
			if err != nil {
				return nil, "", err
			}
			if format == "csv" {
				var buf bytes.Buffer
				if err := report.WriteDemandCSV(&buf, ests); err != nil {
					return nil, "", err
				}
				return buf.Bytes(), ctCSV, nil
			}
			data, err := json.MarshalIndent(report.NewDemandWire(site, ests), "", "  ")
			if err != nil {
				return nil, "", err
			}
			return data, ctJSON, nil
		})
}

// handleSpread serves the k-coverage curves of one (domain, attribute)
// as JSON or CSV.
func (s *Server) handleSpread(w http.ResponseWriter, r *http.Request) {
	d, err := entity.ParseDomain(r.PathValue("domain"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	attr := entity.Attr(r.PathValue("attr"))
	studied := false
	for _, a := range entity.AttrsFor(d) {
		if a == attr {
			studied = true
			break
		}
	}
	if !studied {
		writeError(w, http.StatusNotFound, "attribute %q not studied for domain %q (studied: %v)", attr, d, entity.AttrsFor(d))
		return
	}
	format, err := parseFormat(r, "json", "csv")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveCached(w, r, "spread/"+string(d)+"/"+string(attr), format,
		func(ctx context.Context, e *studyEntry) ([]byte, string, error) {
			res, err := e.study.Spread(d, attr)
			if err != nil {
				return nil, "", err
			}
			if format == "csv" {
				var buf bytes.Buffer
				if err := report.WriteSpreadCSV(&buf, res); err != nil {
					return nil, "", err
				}
				return buf.Bytes(), ctCSV, nil
			}
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return nil, "", err
			}
			return data, ctJSON, nil
		})
}

// handleStats serves live observability state; never cached.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", ctJSON)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Stats()); err != nil {
		// Headers are gone by now; all we can do is log the failure
		// (usually a client gone mid-write) like other handler errors.
		s.log.Error("stats: encode response", "error", err)
	}
}

// handleMetrics serves the Prometheus text exposition: the server's
// own registry (per-endpoint request series, serve gauges) followed by
// the process-wide obs.Default (demand pipeline, segment replay, study
// build series). Scrape-time gauges are set here rather than tracked
// incrementally — the cache snapshot is cheap and always consistent.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	entries, evictions := s.cache.snapshot()
	s.gCachedStudies.Set(int64(len(entries)))
	s.gEvictions.Set(int64(evictions))
	s.gUptime.Set(int64(time.Since(s.start).Seconds()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		s.log.Error("metrics: write exposition", "error", err)
		return
	}
	if err := obs.Default.WritePrometheus(w); err != nil {
		s.log.Error("metrics: write exposition", "error", err)
	}
}
