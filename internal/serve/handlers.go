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
	"net/url"
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
// the exact fault the store's failure records bound to one build per
// errTTL, and one a body already in the store never reaches.
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
	// Unrouted requests get the error envelope too, not ServeMux's
	// plain-text 404 and 405. Every route is GET-only, so a path that
	// routes as a GET is a 405 for any other method.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		asGet := r.Clone(r.Context())
		asGet.Method = http.MethodGet
		if _, pattern := mux.Handler(asGet); pattern != "/" {
			w.Header().Set("Allow", "GET, HEAD")
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on %s", r.Method, r.URL.Path)
			return
		}
		writeError(w, http.StatusNotFound, "no route for %s", r.URL.Path)
	})
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
func parseFormat(q url.Values, supported ...string) (string, error) {
	f := q.Get("format")
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

// writeBody writes a built body with its success headers. An error
// response must not carry the config-derived ETag, or a cache could
// revalidate it forever.
func writeBody(w http.ResponseWriter, b *body, configHash string) {
	h := w.Header()
	h.Set("ETag", b.etag)
	h.Set("X-Config-Hash", configHash)
	h.Set("Content-Type", b.contentType)
	_, _ = w.Write(b.data)
}

// buildFunc marshals one endpoint's body from a study: its bytes and
// content type.
type buildFunc func(ctx context.Context, e *studyEntry) ([]byte, string, error)

// serveStudy is the shared path of every study-backed endpoint, given
// the request's parsed query: parse the study key, answer If-None-Match
// revalidations 304 straight from the deterministic ETag (no study or
// body is touched), answer from the ETag-keyed store on the request
// goroutine, and otherwise build the body, at most once however many
// requests race, and record the outcome in the store.
//
// A failed build is not retried: it is answered with the error
// envelope, and the store answers its ETag with the same error for
// errTTL, so a persistent fault costs one build per errTTL.
func (s *Server) serveStudy(w http.ResponseWriter, r *http.Request, q url.Values, endpoint, format string, build buildFunc) {
	key, err := parseStudyKey(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	configHash := configFor(key, s.opts.Workers).Hash()
	etag := etagOf(configHash, endpoint, format)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if err := r.Context().Err(); err != nil {
		writeBuildError(w, err)
		return
	}
	b, err := s.store.get(etag, s.now)
	if b == nil && err == nil {
		// The build runs on a context detached from this request,
		// budgeted by the server's own timeout: coalesced waiters share
		// one flight, so one client's disconnect must not cancel — and
		// thereby fail — the result every other waiter receives. The
		// request still honors its own deadline via the select below;
		// if it fires first the build keeps running and stores its
		// outcome for the next request.
		type outcome struct {
			b   *body
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			b, err := s.flight(etag, key, build)
			done <- outcome{b, err}
		}()
		select {
		case out := <-done:
			b, err = out.b, out.err
		case <-r.Context().Done():
			err = r.Context().Err()
		}
	}
	if err != nil {
		writeBuildError(w, err)
		return
	}
	writeBody(w, b, configHash)
}

// flight returns the outcome of etag's cold build: one build however
// many callers ask while it is in flight, recorded in the store. The
// flight keeps nothing once it lands, so a caller that missed the
// store before the flight landed finds the outcome when the next
// flight checks the store again before building.
func (s *Server) flight(etag string, key StudyKey, build buildFunc) (*body, error) {
	return s.flights.Get(etag, func() (*body, error) {
		defer s.flights.Forget(etag)
		if b, err := s.store.get(etag, s.now); b != nil || err != nil {
			return b, err
		}
		b, err := s.coldBuild(etag, key, build)
		if err != nil {
			s.store.putFailure(etag, err, s.now())
			return nil, err
		}
		return s.store.put(etag, b), nil
	})
}

// coldBuild runs one build of the body served under etag.
func (s *Server) coldBuild(etag string, key StudyKey, build buildFunc) (*body, error) {
	if err := fpColdBuild.Fail(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.Timeout)
	defer cancel()
	data, contentType, err := build(ctx, s.cache.get(key))
	if err != nil {
		return nil, err
	}
	return &body{data: data, contentType: contentType, etag: etag}, nil
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
	q := r.URL.Query()
	if _, err := parseFormat(q, "json"); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveStudy(w, r, q, "experiment/"+id, "json",
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
	q := r.URL.Query()
	format, err := parseFormat(q, "json", "csv")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveStudy(w, r, q, "demand/"+string(site), format,
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
			return report.DemandJSON(site, ests), ctJSON, nil
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
	q := r.URL.Query()
	format, err := parseFormat(q, "json", "csv")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveStudy(w, r, q, "spread/"+string(d)+"/"+string(attr), format,
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
