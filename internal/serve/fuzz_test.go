package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fuzzServer is one Server per fuzz process, so its caches and body
// store carry over from input to input and later inputs are answered
// from bodies that earlier ones built.
var fuzzServer = sync.OnceValue(func() http.Handler {
	return New(Options{Logger: discardLogger()}).Handler()
})

// fuzzDigests maps each ETag served so far to its body's digest.
var fuzzDigests sync.Map

// inmMatches is the If-None-Match weak comparison of RFC 9110 §13.1.2,
// written out here as the oracle: "*" matches any current
// representation, otherwise some listed tag must equal etag once W/
// prefixes are dropped.
func inmMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, tag := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(tag), "W/") == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}

// fuzzQuery keeps a fuzzed query cheap to serve: a seed that parses is
// mapped into 1–4 and a scale that parses becomes small, so every input
// lands on one of a few small-scale studies. Values that do not parse
// stay, to reach the 400 paths.
func fuzzQuery(raw string, seed uint8) string {
	q, _ := url.ParseQuery(raw)
	if _, err := strconv.ParseUint(q.Get("seed"), 10, 64); err == nil {
		q.Set("seed", strconv.Itoa(1+int(seed)%4))
	}
	if v := q.Get("scale"); v == "default" || v == "large" {
		q.Set("scale", "small")
	}
	return q.Encode()
}

// FuzzServe sends arbitrary paths, queries and If-None-Match values to
// an in-process Server and checks the serving invariants:
//   - no panic, and the status is one of 200, 301 (to the cleaned
//     path), 304, 400 and 404: no fault is armed and no request times
//     out, so neither a 500 nor a 503 or 504 may come back;
//   - every error body is the ErrorWire envelope carrying its status;
//   - 304 comes back if and only if If-None-Match matches the ETag an
//     unconditional request for the same URL was served, and carries it;
//   - equal ETags mean byte-identical bodies (an experiment's elapsed_ms
//     zeroed: it reports how long its build took).
func FuzzServe(f *testing.F) {
	for _, c := range []struct {
		path, query, inm string
		seed             uint8
	}{
		{"/v1/experiments/fig3", "scale=small&seed=1", "", 0},
		{"/v1/experiments/table1", "seed=2", "*", 1},
		{"/v1/demand/yelp", "seed=3&format=csv", `W/"0123456789abcdef"`, 2},
		{"/v1/spread/books/isbn", "format=json", `"x", "y"`, 3},
		{"/v1/spread/banks/phone", "seed=abc", "", 0},
		{"/v1/experiments", "", "*", 0},
		{"/v1/experiments/nope", "", "", 0},
		{"/v1//demand/../demand/imdb", "", "", 0},
		{"/healthz", "extraction=maybe", "", 0},
		{"/v1/stats", "", "*", 0},
		{"nope", "%zz&seed=", ",", 0},
	} {
		f.Add(c.path, c.query, c.inm, c.seed)
	}
	f.Fuzz(func(t *testing.T, path, query, inm string, seed uint8) {
		h := fuzzServer()
		do := func(inm string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.URL.Path = path
			req.URL.RawQuery = fuzzQuery(query, seed)
			if inm != "" {
				req.Header.Set("If-None-Match", inm)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		check := func(rec *httptest.ResponseRecorder) {
			switch rec.Code {
			case http.StatusOK, http.StatusMovedPermanently, http.StatusNotModified:
			case http.StatusBadRequest, http.StatusNotFound:
				dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
				dec.DisallowUnknownFields()
				var ew ErrorWire
				if err := dec.Decode(&ew); err != nil || ew.Status != rec.Code || ew.Error == "" {
					t.Fatalf("%q?%q: %d body %q is not the error envelope", path, query, rec.Code, rec.Body)
				}
			default:
				t.Fatalf("%q?%q: status %d outside the documented set: %s", path, query, rec.Code, rec.Body)
			}
			etag := rec.Header().Get("ETag")
			if rec.Code != http.StatusOK || etag == "" {
				return
			}
			digest := servedDigest(t, path, rec.Body.Bytes())
			if prev, loaded := fuzzDigests.LoadOrStore(etag, digest); loaded && prev != digest {
				t.Fatalf("%q?%q: ETag %s served two different bodies", path, query, etag)
			}
		}

		first := do("")
		if first.Code == http.StatusNotModified {
			t.Fatalf("%q?%q: 304 without If-None-Match", path, query)
		}
		check(first)
		if inm == "" {
			return
		}
		second := do(inm)
		check(second)
		etag := first.Header().Get("ETag")
		want304 := first.Code == http.StatusOK && etag != "" && inmMatches(inm, etag)
		if got304 := second.Code == http.StatusNotModified; got304 != want304 {
			t.Fatalf("%q?%q If-None-Match %q against ETag %q: status %d, want 304 %t",
				path, query, inm, etag, second.Code, want304)
		}
		if want304 && second.Header().Get("ETag") != etag {
			t.Fatalf("%q?%q: 304 carries ETag %q, want %q", path, query, second.Header().Get("ETag"), etag)
		}
	})
}
