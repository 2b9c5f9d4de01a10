package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fail"
)

// fakeClock is a manually advanced clock for failure-record expiry.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// decodeErrorWire parses the structured error envelope.
func decodeErrorWire(t *testing.T, body []byte) ErrorWire {
	t.Helper()
	var ew ErrorWire
	if err := json.Unmarshal(body, &ew); err != nil {
		t.Fatalf("error body %q is not the JSON envelope: %v", body, err)
	}
	return ew
}

// TestStoredBodyServedWithoutRebuild: a warm body survives its
// study's LRU eviction in the body store and is served from there with
// serve/coldbuild armed: 200, byte-identical, same ETag, no Warning,
// and no build tried. A variant that was never stored has no fallback:
// its failed build gets the 500 envelope, without an ETag.
func TestStoredBodyServedWithoutRebuild(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Studies: 1, // capacity 1: requesting a second study evicts the first
	})

	const path = "/v1/demand/yelp?scale=small&seed=1"
	status, h, warm := get(t, ts, path, nil)
	if status != http.StatusOK {
		t.Fatalf("warm-up: status %d", status)
	}
	etag := h.Get("ETag")

	// Evict study seed=1 from the capacity-1 LRU.
	if status, _, _ := get(t, ts, "/v1/demand/yelp?scale=small&seed=2", nil); status != http.StatusOK {
		t.Fatalf("evictor study: status %d", status)
	}

	p := fail.Arm("serve/coldbuild", fail.Action{Kind: fail.Error})
	defer fail.Disarm("serve/coldbuild")
	before := p.Hits()

	for i := 0; i < 3; i++ {
		status, h, body := get(t, ts, path, nil)
		if status != http.StatusOK {
			t.Fatalf("stored request %d: status %d", i, status)
		}
		if !bytes.Equal(body, warm) {
			t.Fatalf("stored request %d: body differs from the warm body", i)
		}
		if h.Get("ETag") != etag {
			t.Fatalf("stored request %d: ETag %q, want %q", i, h.Get("ETag"), etag)
		}
		if w := h.Get("Warning"); w != "" {
			t.Fatalf("stored request %d: Warning %q", i, w)
		}
	}
	if p.Hits() != before {
		t.Fatalf("failpoint hits = %d, want %d: a stored body was rebuilt", p.Hits(), before)
	}

	status, h, body := get(t, ts, path+"&format=csv", nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("never-stored CSV: status %d body %s", status, body)
	}
	if h.Get("ETag") != "" {
		t.Fatalf("error response carries ETag %q", h.Get("ETag"))
	}
	if ew := decodeErrorWire(t, body); ew.Status != http.StatusInternalServerError || ew.Error == "" {
		t.Fatalf("never-stored CSV envelope: %+v", ew)
	}
	if p.Hits() != before+1 {
		t.Fatalf("failpoint hits = %d, want %d: one build for the unstored CSV", p.Hits(), before+1)
	}
}

// newClockedServer is newTestServer with the failure clock replaced by
// clk, set before the server takes its first request.
func newClockedServer(t *testing.T, clk *fakeClock) *httptest.Server {
	t.Helper()
	s := New(Options{Logger: discardLogger()})
	s.now = clk.now
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestColdBuildNegativeCache: under a persistent build fault, the
// store's failure record holds an ETag to one build per errTTL however
// many requests ask for it; past errTTL one more build runs, and once
// the fault clears the body is served.
func TestColdBuildNegativeCache(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	ts := newClockedServer(t, clk)
	p := fail.Arm("serve/coldbuild", fail.Action{Kind: fail.Error})
	defer fail.Disarm("serve/coldbuild")
	before := p.Hits()

	const path = "/v1/demand/yelp?scale=small&seed=3"
	const k = 5
	for i := 0; i < k; i++ {
		if status, _, body := get(t, ts, path, nil); status != http.StatusInternalServerError {
			t.Fatalf("request %d under fault: status %d body %s", i, status, body)
		}
	}
	if got := p.Hits() - before; got != 1 {
		t.Fatalf("%d requests under a persistent fault built %d times, want 1", k, got)
	}

	clk.advance(errTTL)
	for i := 0; i < k; i++ {
		if status, _, _ := get(t, ts, path, nil); status != http.StatusInternalServerError {
			t.Fatalf("request %d past the TTL: status %d", i, status)
		}
	}
	if got := p.Hits() - before; got != 2 {
		t.Fatalf("past the TTL: %d builds in all, want 2", got)
	}

	fail.Disarm("serve/coldbuild")
	clk.advance(errTTL)
	if status, h, _ := get(t, ts, path, nil); status != http.StatusOK || h.Get("ETag") == "" {
		t.Fatalf("after disarm: status %d ETag %q, want 200 with an ETag", status, h.Get("ETag"))
	}
	if got := p.Hits() - before; got != 2 {
		t.Fatalf("after disarm: %d failpoint hits in all, want 2", got)
	}
}

// TestColdBuildFaultHealsAfterErrTTL: a transient (Times:1) injected
// build fault is not retried. The client gets the 500 envelope, and so
// does every request for that ETag within errTTL, without a build (one
// would succeed, the fault being spent); past errTTL a fresh build
// serves the body.
func TestColdBuildFaultHealsAfterErrTTL(t *testing.T) {
	fail.Arm("serve/coldbuild", fail.Action{Kind: fail.Error, Times: 1})
	defer fail.Disarm("serve/coldbuild")
	p := fail.Lookup("serve/coldbuild")
	before := p.Hits()

	clk := &fakeClock{t: time.Unix(100, 0)}
	ts := newClockedServer(t, clk)
	const path = "/v1/demand/yelp?scale=small&seed=1"
	for i := 0; i < 2; i++ {
		status, _, body := get(t, ts, path, nil)
		if status != http.StatusInternalServerError {
			t.Fatalf("request %d within errTTL of the fault: status %d, want 500", i, status)
		}
		if ew := decodeErrorWire(t, body); ew.Status != http.StatusInternalServerError {
			t.Fatalf("request %d: envelope %+v", i, ew)
		}
	}
	clk.advance(errTTL - time.Nanosecond)
	if status, _, _ := get(t, ts, path, nil); status != http.StatusInternalServerError {
		t.Fatalf("request just inside errTTL: status %d, want 500", status)
	}
	clk.advance(time.Nanosecond)
	status, h, _ := get(t, ts, path, nil)
	if status != http.StatusOK || h.Get("ETag") == "" {
		t.Fatalf("past errTTL: status %d ETag %q, want 200 with an ETag", status, h.Get("ETag"))
	}
	if p.Hits() != before+1 {
		t.Fatalf("failpoint hits = %d, want %d (exactly one injected failure)", p.Hits(), before+1)
	}
}

// failureRecords is how many failure records s's body store holds.
func failureRecords(s *Server) int {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	return len(s.store.failed)
}

// TestFailureRecordsBounded: a ?seed= scan under a persistent build
// fault records one failure per ETag, and each record expires errTTL
// after it was made: with the clock moving past errTTL every 10
// requests, the store never holds more than 10 records.
func TestFailureRecordsBounded(t *testing.T) {
	fail.Arm("serve/coldbuild", fail.Action{Kind: fail.Error})
	defer fail.Disarm("serve/coldbuild")
	clk := &fakeClock{t: time.Unix(100, 0)}
	s := New(Options{Logger: discardLogger()})
	s.now = clk.now
	build := func(ctx context.Context, e *studyEntry) ([]byte, string, error) {
		return nil, "", errors.New("build ran past the armed failpoint")
	}
	peak := 0
	for seed := 1; seed <= 200; seed++ {
		rec := httptest.NewRecorder()
		s.serveCached(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/x?seed=%d", seed), nil),
			"test/endpoint", "json", build)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("seed %d under fault: status %d", seed, rec.Code)
		}
		peak = max(peak, failureRecords(s))
		if seed%10 == 0 {
			clk.advance(errTTL)
		}
	}
	if peak > 10 {
		t.Errorf("store held %d failure records at its peak, want at most 10", peak)
	}
	if peak < 10 {
		t.Errorf("store held at most %d failure records, want 10: a failure was not recorded", peak)
	}
}

// TestFlightKeepsNothing: the builder's two exits. After a fresh build
// the flight keeps nothing, so once the stored body is removed the next
// request builds again. A flight that finds the outcome already stored,
// body or failure, returns it without building.
func TestFlightKeepsNothing(t *testing.T) {
	s := New(Options{Logger: discardLogger()})
	var builds atomic.Int64
	build := func(ctx context.Context, e *studyEntry) ([]byte, string, error) {
		builds.Add(1)
		return []byte("payload"), "text/plain", nil
	}
	serve := func() (int, string) {
		rec := httptest.NewRecorder()
		s.serveCached(rec, httptest.NewRequest(http.MethodGet, "/x?seed=42", nil), "test/endpoint", "json", build)
		return rec.Code, rec.Body.String()
	}
	etag := etagOf(configFor(StudyKey{Scale: "small", Seed: 42}, 0).Hash(), "test/endpoint", "json")

	for i := 0; i < 2; i++ {
		if code, body := serve(); code != http.StatusOK || body != "payload" {
			t.Fatalf("request %d: %d %q", i, code, body)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("two requests built %d times, want 1 (the second from the store)", n)
	}
	s.store.mu.Lock()
	delete(s.store.m, etag)
	s.store.mu.Unlock()
	if code, _ := serve(); code != http.StatusOK || builds.Load() != 2 {
		t.Fatalf("after the stored body was removed: status %d, %d builds, want a second build", code, builds.Load())
	}

	key := StudyKey{Scale: "small", Seed: 42}
	stored := &body{data: []byte("stored"), etag: `"stored"`}
	s.store.put(stored.etag, stored)
	if b, err := s.flight(stored.etag, key, build); b != stored || err != nil {
		t.Fatalf("flight over a stored body = %v, %v, want the stored body", b, err)
	}
	boom := errors.New("recorded failure")
	s.store.putFailure(`"failed"`, boom, s.now())
	if b, err := s.flight(`"failed"`, key, build); b != nil || !errors.Is(err, boom) {
		t.Fatalf("flight over a recorded failure = %v, %v, want %v", b, err, boom)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("flights over stored outcomes built: %d builds in all, want 2", n)
	}
}

// TestHandlerFailpoint: the serve/handler site injects faults into the
// instrumented endpoint path — an error becomes a structured 500, and
// a panic is absorbed by Recover into the same envelope.
func TestHandlerFailpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	fail.Arm("serve/handler", fail.Action{Kind: fail.Error, Times: 1})
	status, _, body := get(t, ts, "/healthz", nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("injected error: status %d", status)
	}
	if ew := decodeErrorWire(t, body); ew.Status != http.StatusInternalServerError {
		t.Fatalf("injected error envelope: %+v", ew)
	}

	fail.Arm("serve/handler", fail.Action{Kind: fail.Panic, Times: 1})
	defer fail.Disarm("serve/handler")
	status, _, body = get(t, ts, "/healthz", nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("injected panic: status %d", status)
	}
	if ew := decodeErrorWire(t, body); ew.Error != "internal server error" {
		t.Fatalf("panic envelope: %+v", ew)
	}

	// Disarmed again: healthy.
	if status, _, _ := get(t, ts, "/healthz", nil); status != http.StatusOK {
		t.Fatalf("post-disarm healthz: %d", status)
	}
}

// TestLimitShedEnvelope: requests shed by Limit carry Retry-After and
// the structured envelope.
func TestLimitShedEnvelope(t *testing.T) {
	h := Limit(0)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q", rec.Header().Get("Retry-After"))
	}
	if ew := decodeErrorWire(t, rec.Body.Bytes()); ew.Status != http.StatusServiceUnavailable {
		t.Fatalf("envelope: %+v", ew)
	}
}
