// Package memo provides per-key memoization with singleflight
// semantics: the first caller for a key runs the builder, concurrent
// callers for distinct keys build in parallel, duplicate callers block
// until the in-flight build finishes and share its result. Successful
// results are cached forever; failed builds are forgotten so a later
// caller can retry.
//
// This is the concurrency primitive behind core.Study's artifact
// caches: it replaces a single coarse mutex (which serialized every
// artifact build) with per-key coordination, so independent artifacts
// saturate all cores while each key is still built exactly once.
//
// For callers that must survive flaky builders, GetRetry layers a
// retry policy on top: bounded attempts with exponential backoff and
// deterministic jitter, and a bounded negative cache (error TTL) so a
// persistently-failing key returns its cached error instead of burning
// CPU on a rebuild per request. The memo/build failpoint wraps every
// builder invocation, so transient and persistent build failures can
// be injected in tests without a bespoke flaky builder.
package memo

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fail"
)

// fpBuild fires before every builder invocation (Get and GetRetry
// alike): arming it injects build failures at every memoization point
// in the process.
var fpBuild = fail.Register("memo/build")

// entry is one key's build slot. done is closed when the build
// finishes; val/err are written exactly once before the close.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// negEntry is a negatively-cached build failure: the error GetRetry
// returns for the key until the deadline passes.
type negEntry struct {
	err   error
	until time.Time
}

// Map memoizes values by key. The zero value is ready to use. Map must
// not be copied after first use.
type Map[K comparable, V any] struct {
	mu  sync.Mutex
	m   map[K]*entry[V]
	neg map[K]negEntry
}

// Get returns the cached value for key, building it with build on first
// use. Concurrent Gets for the same key run build once and share its
// result; Gets for distinct keys run concurrently. If build fails (or
// panics) the key is cleared so a subsequent Get retries.
//
// build runs outside the Map's lock: it may Get other keys from this or
// other Maps, as long as the dependency graph is acyclic. A cycle
// deadlocks just as it would with any lock hierarchy.
func (m *Map[K, V]) Get(key K, build func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*entry[V])
	}
	if e, ok := m.m[key]; ok {
		m.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &entry[V]{done: make(chan struct{})}
	m.m[key] = e
	m.mu.Unlock()

	finished := false
	defer func() {
		if finished {
			return
		}
		// build panicked: clear the slot and wake waiters with an error
		// before the panic unwinds, so they don't block forever.
		m.forgetEntry(key, e)
		e.err = fmt.Errorf("memo: build for key %v panicked", key)
		close(e.done)
	}()
	if ferr := fpBuild.Fail(); ferr != nil {
		e.err = ferr
	} else {
		e.val, e.err = build()
	}
	finished = true
	if e.err != nil {
		m.forgetEntry(key, e)
	}
	close(e.done)
	return e.val, e.err
}

// forgetEntry clears key's slot only if it still holds e: once the slot
// is cleared a fresh build may begin, and deleting that newer entry
// would let two builds for one key run and cache out of order.
func (m *Map[K, V]) forgetEntry(key K, e *entry[V]) {
	m.mu.Lock()
	if m.m[key] == e {
		delete(m.m, key)
	}
	m.mu.Unlock()
}

// Cached returns the value for key if a successful build has completed,
// without triggering or waiting for one.
//
// Contract: Cached never observes a mid-build value (the entry's done
// channel must already be closed) and never observes a failed build
// (err must be nil) — a false return means "no committed value", full
// stop. GetRetry relies on this to answer from the cache without
// building: a value obtained from Cached is always a complete,
// successful build.
func (m *Map[K, V]) Cached(key K) (V, bool) {
	m.mu.Lock()
	e, ok := m.m[key]
	m.mu.Unlock()
	if !ok {
		return *new(V), false
	}
	select {
	case <-e.done:
		return e.val, e.err == nil
	default:
		return *new(V), false
	}
}

// Policy bounds how GetRetry handles build failures. The zero value
// means one attempt, no backoff, no negative caching — identical to
// Get.
type Policy struct {
	// Attempts is the maximum number of build attempts per GetRetry
	// call (<= 0 is treated as 1).
	Attempts int
	// BaseDelay is the backoff before the second attempt; attempt n
	// waits BaseDelay<<(n-2), capped at MaxDelay, scaled by a
	// deterministic jitter factor in [0.5, 1.0).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (0: uncapped).
	MaxDelay time.Duration
	// ErrTTL negatively caches the final error for this long: until it
	// expires, GetRetry for the key returns the cached error without
	// building — the bound that stops a persistently-failing key from
	// burning a rebuild per request. 0 disables negative caching.
	ErrTTL time.Duration
	// Seed feeds the jitter hash; two processes with different seeds
	// de-synchronize their retry storms, while a fixed seed makes test
	// schedules reproducible.
	Seed uint64
	// Sleep replaces time.Sleep in tests; nil uses time.Sleep.
	Sleep func(time.Duration)
	// Now replaces time.Now in tests; nil uses time.Now.
	Now func() time.Time
}

func (p Policy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
	} else {
		time.Sleep(d)
	}
}

func (p Policy) now() time.Time {
	if p.Now != nil {
		return p.Now()
	}
	return time.Now()
}

// backoff is the wait before attempt n (n >= 2): exponential from
// BaseDelay, capped, with deterministic multiplicative jitter.
func (p Policy) backoff(n int) time.Duration {
	d := p.BaseDelay
	for i := 2; i < n && (p.MaxDelay <= 0 || d < p.MaxDelay); i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	// Jitter factor in [0.5, 1.0): 53 hash bits as a fraction.
	f := 0.5 + 0.5*float64(splitmix64(p.Seed+uint64(n))>>11)/float64(1<<53)
	return time.Duration(float64(d) * f)
}

// splitmix64 mixes the jitter counter (same finalizer as
// internal/dist): deterministic per (seed, attempt), uncorrelated
// across either.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GetRetry is Get with a failure policy: transient build errors are
// retried up to p.Attempts times with exponentially backed-off,
// deterministically-jittered sleeps between attempts, and the final
// error is negatively cached for p.ErrTTL so subsequent callers fail
// fast instead of stampeding a known-bad builder. Successful results
// cache exactly as with Get — concurrent callers share in-flight
// builds (singleflight), so retrying never duplicates a build another
// caller is already running.
func (m *Map[K, V]) GetRetry(key K, build func() (V, error), p Policy) (V, error) {
	if v, ok := m.Cached(key); ok {
		return v, nil
	}
	m.mu.Lock()
	if ne, ok := m.neg[key]; ok {
		if p.now().Before(ne.until) {
			m.mu.Unlock()
			return *new(V), ne.err
		}
		delete(m.neg, key)
	}
	m.mu.Unlock()

	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for n := 1; n <= attempts; n++ {
		if n > 1 {
			p.sleep(p.backoff(n))
		}
		v, err := m.Get(key, build)
		if err == nil {
			return v, nil
		}
		lastErr = err
	}
	if p.ErrTTL > 0 {
		m.mu.Lock()
		if m.neg == nil {
			m.neg = make(map[K]negEntry)
		}
		m.neg[key] = negEntry{err: lastErr, until: p.now().Add(p.ErrTTL)}
		m.mu.Unlock()
	}
	return *new(V), lastErr
}

// Len returns the number of cached or in-flight keys.
func (m *Map[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Cell memoizes a single value: a Map with one implicit key. The zero
// value is ready to use.
type Cell[V any] struct {
	m Map[struct{}, V]
}

// Get returns the cached value, building it on first use with the same
// singleflight semantics as Map.Get.
func (c *Cell[V]) Get(build func() (V, error)) (V, error) {
	return c.m.Get(struct{}{}, build)
}
