package serve

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer starts a full HTTP server (real sockets, full
// middleware chain) and returns the Server for white-box assertions.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = discardLogger()
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get fetches path and returns status, headers and body.
func get(t *testing.T, ts *httptest.Server, path string, header map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// serveCached drives serveStudy with r's own query, as a handler does,
// for tests that exercise the shared study-backed path directly.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, format string, build buildFunc) {
	s.serveStudy(w, r, r.URL.Query(), endpoint, format, build)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, _, body := get(t, ts, "/healthz", nil)
	if status != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: status %d body %q", status, body)
	}
}

func TestExperimentList(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, h, body := get(t, ts, "/v1/experiments", nil)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var infos []core.ExperimentInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(infos) != len(core.ExperimentIDs()) {
		t.Fatalf("got %d experiments, want %d", len(infos), len(core.ExperimentIDs()))
	}
	for _, info := range infos {
		if info.ID == "" || info.Title == "" {
			t.Errorf("incomplete info %+v", info)
		}
	}
	// The list is static, so its ETag revalidates.
	etag := h.Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}
	status, _, body = get(t, ts, "/v1/experiments", map[string]string{"If-None-Match": etag})
	if status != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation: status %d body %q", status, body)
	}
}

// TestRepeatedRequestsIdentical asserts the core caching contract:
// repeated requests for one (seed, scale) return byte-identical bodies
// and equal ETags, and a separate server instance (fresh caches) serves
// the same bytes and tags — responses are pure functions of
// (seed, config, endpoint).
func TestRepeatedRequestsIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const path = "/v1/spread/books/isbn?scale=small&seed=7"

	status, h1, body1 := get(t, ts, path, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body1)
	}
	_, h2, body2 := get(t, ts, path, nil)
	if string(body1) != string(body2) {
		t.Error("repeated request bodies differ")
	}
	if h1.Get("ETag") == "" || h1.Get("ETag") != h2.Get("ETag") {
		t.Errorf("repeated request ETags differ: %q vs %q", h1.Get("ETag"), h2.Get("ETag"))
	}

	_, ts2 := newTestServer(t, Options{})
	_, h3, body3 := get(t, ts2, path, nil)
	if string(body1) != string(body3) {
		t.Error("fresh server body differs for same (seed, scale)")
	}
	if h1.Get("ETag") != h3.Get("ETag") {
		t.Errorf("fresh server ETag differs: %q vs %q", h1.Get("ETag"), h3.Get("ETag"))
	}

	// A different seed is a different resource.
	_, h4, body4 := get(t, ts, "/v1/spread/books/isbn?scale=small&seed=8", nil)
	if h4.Get("ETag") == h1.Get("ETag") {
		t.Error("distinct seeds share an ETag")
	}
	if string(body4) == string(body1) {
		t.Error("distinct seeds share a body")
	}
}

// TestWarmBodyHeaders: a body served from the cache carries the cold
// response's success headers: the ETag derived from the config hash,
// the X-Config-Hash itself and the content type.
func TestWarmBodyHeaders(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const path = "/v1/spread/books/isbn?scale=small&seed=7&format=csv"
	key, err := parseStudyKey(map[string][]string{"scale": {"small"}, "seed": {"7"}})
	if err != nil {
		t.Fatal(err)
	}
	hash := configFor(key, 0).Hash()
	_, cold, coldBody := get(t, ts, path, nil)
	status, warm, warmBody := get(t, ts, path, nil)
	if status != http.StatusOK || string(warmBody) != string(coldBody) {
		t.Fatalf("warm: status %d, body equal %t", status, string(warmBody) == string(coldBody))
	}
	for _, h := range []http.Header{cold, warm} {
		if h.Get("X-Config-Hash") != hash || h.Get("ETag") != etagOf(hash, "spread/books/isbn", "csv") ||
			h.Get("Content-Type") != ctCSV {
			t.Errorf("headers %v, want config hash %s and its ETag", h, hash)
		}
	}
}

func TestIfNoneMatch304(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	const path = "/v1/experiments/table1?scale=small&seed=1"
	status, h, _ := get(t, ts, path, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	etag := h.Get("ETag")

	status, h2, body := get(t, ts, path, map[string]string{"If-None-Match": etag})
	if status != http.StatusNotModified {
		t.Fatalf("conditional status %d", status)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a body: %q", body)
	}
	if h2.Get("ETag") != etag {
		t.Errorf("304 ETag %q, want %q", h2.Get("ETag"), etag)
	}
	// Wildcard and list forms match too.
	status, _, _ = get(t, ts, path, map[string]string{"If-None-Match": "*"})
	if status != http.StatusNotModified {
		t.Errorf("wildcard: status %d", status)
	}
	status, _, _ = get(t, ts, path, map[string]string{"If-None-Match": `"bogus", ` + etag})
	if status != http.StatusNotModified {
		t.Errorf("list: status %d", status)
	}
	// A stale tag misses and is re-served in full.
	status, _, body = get(t, ts, path, map[string]string{"If-None-Match": `"deadbeef00000000"`})
	if status != http.StatusOK || len(body) == 0 {
		t.Errorf("stale tag: status %d, %d body bytes", status, len(body))
	}

	stats := s.Stats()
	var exp EndpointStats
	for _, e := range stats.Endpoints {
		if e.Endpoint == "experiment" {
			exp = e
		}
	}
	if exp.NotModified != 3 {
		t.Errorf("recorded %d 304s, want 3", exp.NotModified)
	}
}

// TestColdRequestCoalescing fires K concurrent cold requests for one
// configuration and asserts — via BuildStats — that the engine built
// each artifact exactly once: the requests coalesced through the memo
// singleflight layers instead of fanning into K duplicate builds.
func TestColdRequestCoalescing(t *testing.T) {
	const k = 8
	s, ts := newTestServer(t, Options{})
	var wg sync.WaitGroup
	bodies := make([]string, k)
	statuses := make([]int, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := get(t, ts, "/v1/experiments/fig3?scale=small&seed=3", nil)
			statuses[i], bodies[i] = status, string(body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < k; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("request %d body differs", i)
		}
	}
	stats := s.Stats()
	if len(stats.Studies) != 1 {
		t.Fatalf("%d cached studies, want 1", len(stats.Studies))
	}
	b := stats.Studies[0].Builds
	if b.Webs != 1 || b.Indexes != 1 {
		t.Errorf("K=%d concurrent cold requests built webs=%d indexes=%d, want 1 each (no coalescing?)", k, b.Webs, b.Indexes)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Studies: 2})
	get(t, ts, "/v1/experiments/table1?seed=1", nil)
	get(t, ts, "/v1/experiments/table1?seed=2", nil)
	status, _, body := get(t, ts, "/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var stats StatsWire
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.CacheCapacity != 2 || len(stats.Studies) != 2 {
		t.Errorf("capacity %d studies %d, want 2 and 2", stats.CacheCapacity, len(stats.Studies))
	}
	found := false
	for _, e := range stats.Endpoints {
		if e.Endpoint == "experiment" {
			found = true
			if e.Count != 2 || e.Errors != 0 {
				t.Errorf("experiment endpoint stats %+v", e)
			}
			if e.MeanMS < 0 || e.MaxMS < e.MeanMS {
				t.Errorf("inconsistent timings %+v", e)
			}
		}
	}
	if !found {
		t.Error("no per-request timings for experiment endpoint")
	}
	for _, st := range stats.Studies {
		if st.ConfigHash == "" {
			t.Errorf("study %+v missing config hash", st)
		}
	}
}

// TestExtractionParamIgnored: extraction is how a study is built, not
// which result it holds, so ?extraction= is an unknown parameter like
// any other. The request with it gets the same ETag and bytes as the
// one without, and the server keeps one study for both.
func TestExtractionParamIgnored(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	status, h1, body1 := get(t, ts, "/v1/experiments/fig3?seed=1", nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body1)
	}
	status, h2, body2 := get(t, ts, "/v1/experiments/fig3?seed=1&extraction=true", nil)
	if status != http.StatusOK {
		t.Fatalf("extraction=true: status %d: %s", status, body2)
	}
	if h1.Get("ETag") == "" || h2.Get("ETag") != h1.Get("ETag") {
		t.Errorf("ETags %q and %q, want one", h1.Get("ETag"), h2.Get("ETag"))
	}
	if string(body2) != string(body1) {
		t.Error("extraction=true served different bytes")
	}
	if n := len(s.Stats().Studies); n != 1 {
		t.Errorf("%d cached studies, want 1", n)
	}
}

func TestStudyLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{Studies: 2})
	for seed := 1; seed <= 3; seed++ {
		status, _, body := get(t, ts, fmt.Sprintf("/v1/experiments/table1?seed=%d", seed), nil)
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d %s", seed, status, body)
		}
	}
	stats := s.Stats()
	if len(stats.Studies) != 2 {
		t.Fatalf("%d cached studies, want 2", len(stats.Studies))
	}
	if stats.Evictions != 1 {
		t.Errorf("evictions %d, want 1", stats.Evictions)
	}
	// Most recently used first; seed 1 was evicted.
	if stats.Studies[0].Seed != 3 || stats.Studies[1].Seed != 2 {
		t.Errorf("cached seeds %d, %d; want 3, 2", stats.Studies[0].Seed, stats.Studies[1].Seed)
	}
	// The evicted study rebuilds on demand — same bytes as before.
	status, _, _ := get(t, ts, "/v1/experiments/table1?seed=1", nil)
	if status != http.StatusOK {
		t.Fatalf("evicted config re-request: status %d", status)
	}
}

func TestDemandJSONAndCSV(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, _, body := get(t, ts, "/v1/demand/yelp?scale=small&seed=1", nil)
	if status != http.StatusOK {
		t.Fatalf("json status %d: %s", status, body)
	}
	var wire report.DemandWire
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if wire.Site != "yelp" || len(wire.Sources["search"]) == 0 || len(wire.Sources["browse"]) == 0 {
		t.Fatalf("demand wire incomplete: site %q, %d search, %d browse",
			wire.Site, len(wire.Sources["search"]), len(wire.Sources["browse"]))
	}

	status, h, body := get(t, ts, "/v1/demand/yelp?scale=small&seed=1&format=csv", nil)
	if status != http.StatusOK {
		t.Fatalf("csv status %d", status)
	}
	if ct := h.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("csv content type %q", ct)
	}
	rows, err := csv.NewReader(strings.NewReader(string(body))).ReadAll()
	if err != nil {
		t.Fatalf("parse csv: %v", err)
	}
	if len(rows) != len(wire.Sources["search"])+1 {
		t.Errorf("%d csv rows, want %d entities + header", len(rows), len(wire.Sources["search"]))
	}
	if want := []string{"entity", "search_visits", "search_uniques", "browse_visits", "browse_uniques"}; strings.Join(rows[0], ",") != strings.Join(want, ",") {
		t.Errorf("csv header %v", rows[0])
	}

	// JSON and CSV are distinct cache entries with distinct ETags.
	_, hj, _ := get(t, ts, "/v1/demand/yelp?scale=small&seed=1", nil)
	if hj.Get("ETag") == h.Get("ETag") {
		t.Error("json and csv share an ETag")
	}
}

func TestSpreadJSONAndCSV(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, _, body := get(t, ts, "/v1/spread/books/isbn?scale=small&seed=1", nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var res core.SpreadResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(res.Curves) != core.KCoverageMax || res.Sites == 0 {
		t.Fatalf("spread result: %d curves, %d sites", len(res.Curves), res.Sites)
	}

	status, _, body = get(t, ts, "/v1/spread/books/isbn?scale=small&seed=1&format=csv", nil)
	if status != http.StatusOK {
		t.Fatalf("csv status %d", status)
	}
	rows, err := csv.NewReader(strings.NewReader(string(body))).ReadAll()
	if err != nil {
		t.Fatalf("parse csv: %v", err)
	}
	points := 0
	for _, c := range res.Curves {
		points += len(c.T)
	}
	if len(rows) != points+1 {
		t.Errorf("%d csv rows, want %d points + header", len(rows), points)
	}
}

// TestExperimentWireMatchesBatchEncoding asserts the serving and batch
// (`analyze -json`) paths produce the same wire document for the same
// configuration, modulo run timings.
func TestExperimentWireMatchesBatchEncoding(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, _, body := get(t, ts, "/v1/experiments/table1?scale=small&seed=1", nil)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var served report.Envelope
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatalf("decode served envelope: %v", err)
	}

	study := core.NewStudy(core.Config{Seed: 1, Entities: 2000, DirectoryHosts: 3000, CatalogN: 2000})
	rep, err := study.RunExperiments(context.Background(), []string{"table1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := report.WriteJSON(&buf, study, rep); err != nil {
		t.Fatal(err)
	}
	var batch report.Envelope
	if err := json.Unmarshal([]byte(buf.String()), &batch); err != nil {
		t.Fatalf("decode batch envelope: %v", err)
	}

	if served.Schema != batch.Schema || served.Seed != batch.Seed || served.ConfigHash != batch.ConfigHash {
		t.Errorf("envelope headers differ: served %+v batch %+v", served, batch)
	}
	if len(served.Results) != 1 || len(batch.Results) != 1 {
		t.Fatalf("result counts: served %d batch %d", len(served.Results), len(batch.Results))
	}
	if string(served.Results[0].Value) != string(batch.Results[0].Value) {
		t.Errorf("served value %s\nbatch value %s", served.Results[0].Value, batch.Results[0].Value)
	}
}

func TestErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		path string
		want int
	}{
		{"/v1/experiments/nope", http.StatusNotFound},
		{"/v1/demand/nope", http.StatusNotFound},
		{"/v1/spread/nope/phone", http.StatusNotFound},
		{"/v1/spread/books/phone", http.StatusNotFound}, // phone not studied for books
		{"/v1/experiments/table1?scale=galactic", http.StatusBadRequest},
		{"/v1/experiments/table1?seed=-1", http.StatusBadRequest},
		{"/v1/experiments/table1?format=csv", http.StatusBadRequest},
		{"/v1/demand/yelp?format=xml", http.StatusBadRequest},
		{"/v1/spread/books/isbn?format=xml", http.StatusBadRequest},
		{"/nope", http.StatusNotFound},
		{"/v1/experiments/", http.StatusNotFound},
	}
	for _, tc := range cases {
		status, _, body := get(t, ts, tc.path, nil)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.path, status, tc.want, body)
		}
		if ew := decodeErrorWire(t, body); ew.Status != tc.want {
			t.Errorf("%s: envelope %+v, want status %d", tc.path, ew, tc.want)
		}
	}

	// Non-GET methods are rejected by the router, with the envelope; a
	// path no route serves stays a 404 whatever the method.
	for path, want := range map[string]int{"/v1/experiments": http.StatusMethodNotAllowed, "/nope": http.StatusNotFound} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s: status %d, want %d", path, resp.StatusCode, want)
		}
		if ew := decodeErrorWire(t, body); ew.Status != want {
			t.Errorf("POST %s: envelope %+v", path, ew)
		}
		if want == http.StatusMethodNotAllowed && resp.Header.Get("Allow") != "GET, HEAD" {
			t.Errorf("POST %s: Allow %q, want \"GET, HEAD\"", path, resp.Header.Get("Allow"))
		}
	}
}

// TestRequestTimeout holds a request past the server's per-request
// budget and asserts the build observes the expired context as a 504.
func TestRequestTimeout(t *testing.T) {
	s := New(Options{Timeout: 30 * time.Millisecond, Logger: discardLogger()})
	s.testDelay = func(endpoint string) {
		if endpoint == "experiment" {
			time.Sleep(60 * time.Millisecond)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, _, body := get(t, ts, "/v1/experiments/table1?seed=99", nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, body)
	}
	// The failed build was forgotten: the same request succeeds once the
	// delay is gone (table1 runs well inside the 30ms budget).
	s.testDelay = nil
	status, _, _ = get(t, ts, "/v1/experiments/table1?seed=99", nil)
	if status != http.StatusOK {
		t.Fatalf("retry after timeout: status %d, want 200", status)
	}
}

// TestGracefulShutdownDrains starts a real listener, holds a request
// in-flight, and asserts Shutdown completes only after that request is
// served — then refuses new connections.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Options{Logger: discardLogger()})
	inHandler := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testDelay = func(endpoint string) {
		if endpoint == "healthz" {
			once.Do(func() { close(inHandler) })
			<-release
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Start(ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		status int
		body   string
		err    error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		reqDone <- result{status: resp.StatusCode, body: string(b)}
	}()
	<-inHandler

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	r := <-reqDone
	if r.err != nil || r.status != http.StatusOK || strings.TrimSpace(r.body) != "ok" {
		t.Fatalf("drained request: %+v", r)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server accepted a connection after shutdown")
	}
}

// TestAbandonedRequestDoesNotPoisonCoalescedBuild: the build runs on a
// context detached from the request that started it, so when that
// client disconnects mid-build, a coalesced waiter on the same
// (study, endpoint) still receives the completed body — and the build
// runs exactly once.
func TestAbandonedRequestDoesNotPoisonCoalescedBuild(t *testing.T) {
	s := New(Options{Logger: discardLogger()})
	var builds atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	build := func(ctx context.Context, e *studyEntry) ([]byte, string, error) {
		if builds.Add(1) == 1 {
			close(started)
		}
		select {
		case <-release:
			return []byte("payload"), "text/plain", nil
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
	serve := func(ctx context.Context) (int, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/x?seed=42", nil).WithContext(ctx)
		s.serveCached(rec, req, "test/endpoint", "json", build)
		return rec.Code, rec.Body.String()
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan int, 1)
	go func() {
		code, _ := serve(ctxA)
		aDone <- code
	}()
	<-started

	bDone := make(chan [2]string, 1)
	go func() {
		code, body := serve(context.Background())
		bDone <- [2]string{fmt.Sprint(code), body}
	}()
	time.Sleep(20 * time.Millisecond) // let B coalesce onto A's build

	cancelA()
	if code := <-aDone; code != http.StatusServiceUnavailable {
		t.Errorf("abandoned request: status %d, want 503", code)
	}
	close(release)
	if got := <-bDone; got != [2]string{"200", "payload"} {
		t.Errorf("coalesced waiter got %v, want the completed body", got)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
}
