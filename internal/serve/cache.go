package serve

import (
	"container/list"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/synth"
)

// StudyKey identifies one cached study configuration — the unit of the
// serving layer's multi-study cache. It is parsed from the query
// parameters ?scale, ?seed and ?extraction.
type StudyKey struct {
	Scale      string
	Seed       uint64
	Extraction bool
}

func (k StudyKey) String() string {
	return fmt.Sprintf("%s/seed=%d/extraction=%t", k.Scale, k.Seed, k.Extraction)
}

// configFor resolves a StudyKey to the core configuration it denotes.
// Workers is scheduling-only and excluded from Config.Hash, so it never
// influences response bytes or ETags.
func configFor(k StudyKey, workers int) core.Config {
	sc, _ := synth.ParseScale(k.Scale) // parseStudyKey admits only known names
	return core.Config{
		Seed:           k.Seed,
		Entities:       sc.Entities,
		DirectoryHosts: sc.DirectoryHosts,
		CatalogN:       sc.Entities,
		UseExtraction:  k.Extraction,
		Workers:        workers,
	}
}

// parseStudyKey extracts a StudyKey from query parameters, applying the
// defaults scale=small, seed=1, extraction=false.
func parseStudyKey(q url.Values) (StudyKey, error) {
	k := StudyKey{Scale: "small", Seed: 1}
	if v := q.Get("scale"); v != "" {
		if _, err := synth.ParseScale(v); err != nil {
			return StudyKey{}, err
		}
		k.Scale = v
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return StudyKey{}, fmt.Errorf("invalid seed %q: must be an unsigned integer", v)
		}
		k.Seed = seed
	}
	if v := q.Get("extraction"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return StudyKey{}, fmt.Errorf("invalid extraction %q: must be a boolean", v)
		}
		k.Extraction = b
	}
	return k, nil
}

// bodyKey identifies one cached response body within a study: the
// endpoint (e.g. "experiment/fig3") and wire format ("json" or "csv").
type bodyKey struct {
	endpoint string
	format   string
}

// body is one immutable, fully marshaled response.
type body struct {
	data        []byte
	contentType string
	etag        string
}

// studyEntry pairs a cached Study with its response-body cache and the
// circuit breaker guarding its cold builds. Both caches coalesce
// duplicate concurrent builds (memo singleflight), and all three are
// dropped together when the LRU evicts the entry — an evicted study's
// breaker state (and failure count) is forgotten with it, while its
// last good bodies may live on in the server-level stale store.
type studyEntry struct {
	key     StudyKey
	cfg     core.Config
	study   *core.Study
	bodies  memo.Map[bodyKey, *body]
	breaker *breaker
}

// staleKey identifies one retained body in the stale store: a study
// configuration plus the (endpoint, format) within it.
type staleKey struct {
	study StudyKey
	body  bodyKey
}

// staleBudget bounds the bytes of body data the stale store retains.
// Its keys carry the client-chosen ?seed=, so without a bound a
// seed-scanning client grows server memory forever (~0.3 MB per
// small-scale seed for fig3, demand/yelp and spread/banks/phone).
// 8 MiB keeps the recent bodies of a few dozen small-scale
// configurations — several times what the default 4-study LRU holds —
// which is the window in which a rebuild after eviction can fail.
const staleBudget = 8 << 20

// staleStore retains the last successfully built body per (study,
// endpoint, format), outliving the study LRU: it is the fallback the
// stale-while-error path serves when a rebuild after eviction (or
// Forget) fails, and nothing else reads it. Because every body is a pure
// function of its config, a "stale" body is byte-identical to what the
// failed rebuild would have produced — staleness here means "built in an
// earlier epoch", not "out of date". Retained bytes stay within
// staleBudget: the least recently stored body is evicted first, and a
// body larger than the budget is not retained.
type staleStore struct {
	mu    sync.Mutex
	m     map[staleKey]*body
	order []staleKey // store order, least recent first
	bytes int
}

func (st *staleStore) put(k staleKey, b *body) {
	if len(b.data) > staleBudget {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.m == nil {
		st.m = make(map[staleKey]*body)
	}
	if old, ok := st.m[k]; ok {
		st.bytes -= len(old.data)
		st.order = slices.DeleteFunc(st.order, func(o staleKey) bool { return o == k })
	}
	st.m[k] = b
	st.order = append(st.order, k)
	st.bytes += len(b.data)
	for st.bytes > staleBudget {
		st.bytes -= len(st.m[st.order[0]].data)
		delete(st.m, st.order[0])
		st.order = st.order[1:]
	}
}

func (st *staleStore) get(k staleKey) (*body, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	b, ok := st.m[k]
	return b, ok
}

// studyCache is a bounded LRU of study entries. Creating an entry is
// cheap — core.NewStudy allocates only empty memo maps — so the cache
// creates entries eagerly under its lock; the expensive artifact builds
// happen later, outside the lock, deduplicated per key by the study's
// own singleflight layer. Evicting an entry that still serves in-flight
// requests is safe: those requests keep their pointer and the entry is
// garbage-collected when they finish.
type studyCache struct {
	mu          sync.Mutex
	capacity    int
	workers     int
	brThreshold int
	brCooldown  time.Duration
	ll          *list.List // *studyEntry values; front = most recently used
	entries     map[StudyKey]*list.Element
	evictions   int
}

func newStudyCache(capacity, workers, brThreshold int, brCooldown time.Duration) *studyCache {
	return &studyCache{
		capacity:    capacity,
		workers:     workers,
		brThreshold: brThreshold,
		brCooldown:  brCooldown,
		ll:          list.New(),
		entries:     make(map[StudyKey]*list.Element),
	}
}

// get returns the entry for key, creating it (and evicting the least
// recently used entry beyond capacity) if needed.
func (c *studyCache) get(key StudyKey) *studyEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*studyEntry)
	}
	cfg := configFor(key, c.workers)
	e := &studyEntry{
		key:     key,
		cfg:     cfg,
		study:   core.NewStudy(cfg),
		breaker: newBreaker(c.brThreshold, c.brCooldown),
	}
	c.entries[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*studyEntry).key)
		c.evictions++
	}
	return e
}

// snapshot returns the cached entries (most recently used first) and
// the eviction count.
func (c *studyCache) snapshot() ([]*studyEntry, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*studyEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*studyEntry))
	}
	return out, c.evictions
}
