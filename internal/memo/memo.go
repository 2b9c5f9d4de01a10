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
// Forget drops a key, so a caller that wants coalescing without
// retention (one build in flight per key, nothing kept once it
// finishes) calls it from its own builder. The memo/build failpoint
// wraps every builder invocation, so build failures can be injected in
// tests without a bespoke flaky builder.
package memo

import (
	"fmt"
	"sync"

	"repro/internal/fail"
)

// fpBuild fires before every builder invocation: arming it injects
// build failures at every memoization point in the process.
var fpBuild = fail.Register("memo/build")

// entry is one key's build slot. done is closed when the build
// finishes; val/err are written exactly once before the close.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Map memoizes values by key. The zero value is ready to use. Map must
// not be copied after first use.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
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

// Forget drops key's entry, finished or in flight, so the next Get
// for key builds again. Callers already waiting on an in-flight build
// still receive its result. A builder may Forget its own key: the
// entry then holds only the build in flight, never a finished value.
func (m *Map[K, V]) Forget(key K) {
	m.mu.Lock()
	delete(m.m, key)
	m.mu.Unlock()
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
