package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fail"
	"repro/internal/memo"
)

// fakeClock is a manually advanced clock for negative-cache TTLs.
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
		Studies: 1,                        // capacity 1: requesting a second study evicts the first
		Retry:   memo.Policy{Attempts: 1}, // no retries, no negative cache
	})

	const path = "/v1/demand/yelp?scale=small&seed=1"
	status, h, warm := get(t, ts, path, nil)
	if status != http.StatusOK {
		t.Fatalf("warm-up: status %d", status)
	}
	etag := h.Get("ETag")

	// Evict study seed=1 (and its body memo) from the capacity-1 LRU.
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

// TestColdBuildNegativeCache: under a persistent build fault, the
// retry policy's negative cache holds a (study, endpoint) pair to one
// build per ErrTTL however many requests ask for it; past the TTL one
// more build runs, and once the fault clears the body is served.
func TestColdBuildNegativeCache(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	_, ts := newTestServer(t, Options{
		Retry: memo.Policy{Attempts: 1, ErrTTL: time.Minute, Now: clk.now},
	})
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

	clk.advance(time.Minute + time.Second)
	for i := 0; i < k; i++ {
		if status, _, _ := get(t, ts, path, nil); status != http.StatusInternalServerError {
			t.Fatalf("request %d past the TTL: status %d", i, status)
		}
	}
	if got := p.Hits() - before; got != 2 {
		t.Fatalf("past the TTL: %d builds in all, want 2", got)
	}

	fail.Disarm("serve/coldbuild")
	clk.advance(time.Minute + time.Second)
	if status, h, _ := get(t, ts, path, nil); status != http.StatusOK || h.Get("ETag") == "" {
		t.Fatalf("after disarm: status %d ETag %q, want 200 with an ETag", status, h.Get("ETag"))
	}
	if got := p.Hits() - before; got != 2 {
		t.Fatalf("after disarm: %d failpoint hits in all, want 2", got)
	}
}

// TestColdBuildRetryHeals: a transient (Times:1) injected build fault
// is absorbed entirely by the retry policy — the client sees a fresh
// 200, no staleness, no error.
func TestColdBuildRetryHeals(t *testing.T) {
	fail.Arm("serve/coldbuild", fail.Action{Kind: fail.Error, Times: 1})
	defer fail.Disarm("serve/coldbuild")
	p := fail.Lookup("serve/coldbuild")
	before := p.Hits()

	_, ts := newTestServer(t, Options{
		Retry: memo.Policy{Attempts: 2, BaseDelay: time.Millisecond, Seed: 1},
	})
	status, h, _ := get(t, ts, "/v1/demand/yelp?scale=small&seed=1", nil)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 (retry should heal the injected fault)", status)
	}
	if w := h.Get("Warning"); w != "" {
		t.Fatalf("healed response marked stale: Warning %q", w)
	}
	if p.Hits() != before+1 {
		t.Fatalf("failpoint hits = %d, want %d (exactly one injected failure)", p.Hits(), before+1)
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
