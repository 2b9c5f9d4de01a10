package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"
)

// Middleware wraps an http.Handler with one cross-cutting concern.
type Middleware func(http.Handler) http.Handler

// Chain applies middleware around h; the first listed is outermost.
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// statusWriter records the status code and body size written through a
// ResponseWriter.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// wroteStatus returns the recorded status, defaulting to 200 as
// net/http does for handlers that never call WriteHeader.
func (w *statusWriter) wroteStatus() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// AccessLog emits one structured log line per request: method, path,
// status, response bytes and wall-clock duration. While the logger
// drops Info records, requests pass straight through, unwrapped.
func AccessLog(log *slog.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !log.Enabled(r.Context(), slog.LevelInfo) {
				next.ServeHTTP(w, r)
				return
			}
			sw := &statusWriter{ResponseWriter: w}
			t0 := time.Now()
			next.ServeHTTP(sw, r)
			log.Info("request",
				"method", r.Method,
				"path", r.URL.RequestURI(),
				"status", sw.wroteStatus(),
				"bytes", sw.bytes,
				"duration", time.Since(t0).Round(time.Microsecond),
			)
		})
	}
}

// Recover turns handler panics into structured 500s instead of torn
// connections. If the handler already wrote headers the envelope may be
// appended to a partial body — unavoidable, and still better than a
// reset stream.
func Recover(log *slog.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					log.Error("panic", "path", r.URL.Path, "value", v)
					writeError(w, http.StatusInternalServerError, "internal server error")
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// Limit bounds in-flight requests to n. Excess requests wait for a
// slot; a request whose context ends while waiting — the per-request
// timeout (Limit runs inside Timeout) or a client disconnect — fails
// 503, so a stalled backlog degrades with backpressure instead of
// unbounded goroutine pileup.
func Limit(n int) Middleware {
	slots := make(chan struct{}, n)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case slots <- struct{}{}:
				defer func() { <-slots }()
				next.ServeHTTP(w, r)
			case <-r.Context().Done():
				// Shed with a retry hint: the pool being full is
				// transient by construction, so tell well-behaved
				// clients when to come back instead of letting them
				// hammer a saturated server.
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, "server overloaded")
			}
		})
	}
}

// Timeout bounds each request's handling via its context — including
// time spent queued for an in-flight slot. Handlers map an expired
// deadline to 504 (and shed queued waiters 503 via Limit); the
// underlying artifact build is budgeted separately so one abandoned
// request cannot poison a coalesced build.
func Timeout(d time.Duration) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}
