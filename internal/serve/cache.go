package serve

import (
	"container/list"
	"fmt"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
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

// body is one immutable, fully marshaled response.
type body struct {
	data        []byte
	contentType string
	etag        string
}

// studyEntry is one cached Study with the key and config it was made
// from. The bodies built from it live on in the server-level body
// store after the LRU evicts it.
type studyEntry struct {
	key   StudyKey
	cfg   core.Config
	study *core.Study
}

// bodyBudget bounds the bytes of body data the body store retains.
// Its keys carry the client-chosen ?seed=, so without a bound a
// seed-scanning client grows server memory forever (~0.3 MB per
// small-scale seed for fig3, demand/yelp and spread/banks/phone).
// 8 MiB keeps the recent bodies of a few dozen small-scale
// configurations, several times what the default 4-study LRU holds.
const bodyBudget = 8 << 20

// errTTL is how long the body store answers an ETag with the error of
// its failed build before a request may build it again: the bound that
// holds a persistent fault to one build per ETag per errTTL however
// many requests ask.
const errTTL = time.Second

// bodyStore records the outcome of every cold build, keyed by its
// ETag, and is where every request is answered from. It outlives the
// study LRU: a body whose study was evicted is served from here with
// no rebuild, and because every body is a pure function of (config,
// endpoint, format), the stored bytes are what a rebuild would
// produce. The first body stored under an ETag stays, so one ETag
// serves one body for as long as it is kept. Retained bytes stay
// within bodyBudget: the least recently stored body is evicted first,
// and a body larger than the budget is not retained.
//
// A failed build is recorded as its error, served for errTTL. Expired
// records are dropped whenever a new one is recorded, so a ?seed= scan
// under a fault keeps no more records than one errTTL of failures.
type bodyStore struct {
	mu     sync.Mutex
	m      map[string]*body
	order  []string // store order, least recent first
	bytes  int
	failed map[string]failure
}

// failure is a recorded build error, served until the clock reaches
// until.
type failure struct {
	err   error
	until time.Time
}

// put stores b under etag unless a body is already stored there, and
// returns the body the store now serves for etag.
func (st *bodyStore) put(etag string, b *body) *body {
	if len(b.data) > bodyBudget {
		return b
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if old, ok := st.m[etag]; ok {
		return old
	}
	if st.m == nil {
		st.m = make(map[string]*body)
	}
	st.m[etag] = b
	st.order = append(st.order, etag)
	st.bytes += len(b.data)
	for st.bytes > bodyBudget {
		st.bytes -= len(st.m[st.order[0]].data)
		delete(st.m, st.order[0])
		st.order = st.order[1:]
	}
	return b
}

// putFailure records err as the outcome of etag's build at time now,
// and drops every record that has expired by then.
func (st *bodyStore) putFailure(etag string, err error, now time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed == nil {
		st.failed = make(map[string]failure)
	}
	for k, f := range st.failed {
		if !now.Before(f.until) {
			delete(st.failed, k)
		}
	}
	st.failed[etag] = failure{err: err, until: now.Add(errTTL)}
}

// get returns the outcome recorded for etag: its body, or the error of
// a build that failed less than errTTL ago. Both are nil when there is
// neither, and the caller builds. now is read only when a failure is
// recorded for etag, and outside the lock.
func (st *bodyStore) get(etag string, now func() time.Time) (*body, error) {
	st.mu.Lock()
	if b, ok := st.m[etag]; ok {
		st.mu.Unlock()
		return b, nil
	}
	f, ok := st.failed[etag]
	st.mu.Unlock()
	if ok && now().Before(f.until) {
		return nil, f.err
	}
	return nil, nil
}

// studyCache is a bounded LRU of study entries. Creating an entry is
// cheap — core.NewStudy allocates only empty memo maps — so the cache
// creates entries eagerly under its lock; the expensive artifact builds
// happen later, outside the lock, deduplicated per key by the study's
// own singleflight layer. Evicting an entry that still serves in-flight
// requests is safe: those requests keep their pointer and the entry is
// garbage-collected when they finish.
type studyCache struct {
	mu        sync.Mutex
	capacity  int
	workers   int
	ll        *list.List // *studyEntry values; front = most recently used
	entries   map[StudyKey]*list.Element
	evictions int
}

func newStudyCache(capacity, workers int) *studyCache {
	return &studyCache{
		capacity: capacity,
		workers:  workers,
		ll:       list.New(),
		entries:  make(map[StudyKey]*list.Element),
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
	e := &studyEntry{key: key, cfg: cfg, study: core.NewStudy(cfg)}
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
