package demand

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/logs"
)

// ShardedAggregator partitions per-entity demand state across shards so
// N workers can fold a click stream concurrently. Clicks route to
// shards round-robin by catalog entity index (shard = entity mod N) —
// no URL is hashed or parsed anywhere on the routing path — so every
// click for one entity lands on the same shard and no per-entity state
// is ever shared across goroutines. Each shard stores only its own
// entities, densely (local index = entity div N): head entities, which
// carry the bulk of Zipfian traffic, interleave across shards and pack
// into adjacent slots, so the total footprint equals one serial
// aggregator's regardless of shard count. The merged result is
// identical to folding the same stream through one Aggregator serially:
// per-entity aggregation (visit counts and cookie-set insertion) is
// order-independent, and routing is a pure function of the click's
// entity.
type ShardedAggregator struct {
	shards []*Aggregator
	n      int    // catalog entity count
	shift  uint   // log2(shards) when shards is a power of two
	mask   uint32 // shards-1 when shards is a power of two
	pow2   bool

	// Wire-click resolution (see refOf): byURL interns the catalog's
	// canonical entity URLs, so a replayed simulator log costs one
	// string-map hit per click instead of a parse plus a key lookup;
	// byKey and site back the general parser for everything else.
	byKey map[string]int
	byURL map[string]int
	site  logs.Site

	// Feed replay accounting (see FeedStats): resolver workers count
	// wire clicks that resolved to a catalog entity versus dropped
	// (foreign site, non-entity URL, unknown source), batched into
	// these atomics once per input batch.
	feedResolved atomic.Uint64
	feedDropped  atomic.Uint64
}

// NewShardedAggregator returns an aggregator with `shards` partitions
// over cat (minimum 1). The catalog URL/key lookups are shared
// read-only by Feed's resolver workers.
func NewShardedAggregator(cat *Catalog, shards int) *ShardedAggregator {
	if shards < 1 {
		shards = 1
	}
	n := len(cat.Entities)
	sa := &ShardedAggregator{
		shards: make([]*Aggregator, shards), n: n,
		byKey: cat.ByKey(), byURL: cat.ByURL(), site: cat.Site,
	}
	if shards&(shards-1) == 0 {
		sa.pow2, sa.shift, sa.mask = true, uint(bits.TrailingZeros(uint(shards))), uint32(shards-1)
	}
	for s := range sa.shards {
		// Shard s owns entities s, s+shards, s+2*shards, ...
		size := 0
		if s < n {
			size = (n - s + shards - 1) / shards
		}
		sa.shards[s] = newAggregator(size)
	}
	return sa
}

// Shards returns the partition count.
func (sa *ShardedAggregator) Shards() int { return len(sa.shards) }

// SetCookieHint forwards Aggregator.SetCookieHint to every shard.
func (sa *ShardedAggregator) SetCookieHint(max int) {
	for _, sh := range sa.shards {
		sh.SetCookieHint(max)
	}
}

// localize rewrites a global-entity ref into its owning shard's dense
// local index space, returning the shard. Power-of-two shard counts —
// the common default — take the mask/shift path: an integer division
// per event is real money on the routing hot path. Routing is on the
// unsigned entity, so a negative entity (which the segment format
// round-trips by design) lands on a valid shard at a local index past
// any shard's column and drops in the fold like any out-of-range ref.
func (sa *ShardedAggregator) localize(r *ClickRef) (shard int) {
	e := uint32(r.Entity)
	if sa.pow2 {
		r.Entity = int32(e >> sa.shift)
		return int(e & sa.mask)
	}
	s := uint32(len(sa.shards))
	r.Entity = int32(e / s)
	return int(e % s)
}

// refOf resolves a wire click to the internal representation with its
// global entity index, false for clicks the aggregator ignores: an
// unknown source, a foreign site or a URL naming no catalog entity.
// Canonical catalog URLs cost one interned-map hit; everything else
// goes through the general parser.
func (sa *ShardedAggregator) refOf(c logs.Click) (ClickRef, bool) {
	si := srcIdx(c.Source)
	if si < 0 {
		return ClickRef{}, false
	}
	id, ok := sa.byURL[c.URL]
	if !ok {
		site, key, okParse := logs.ParseEntityURL(c.URL)
		if !okParse || site != sa.site {
			return ClickRef{}, false
		}
		if id, ok = sa.byKey[key]; !ok {
			return ClickRef{}, false
		}
	}
	return ClickRef{Cookie: c.Cookie, Entity: int32(id), Day: int16(c.Day), Src: uint8(si)}, true
}

// Demand merges the per-shard estimates, indexed by entity ID. Shards
// own disjoint entities, so merging scatters each shard's dense local
// estimates back to global entity positions.
func (sa *ShardedAggregator) Demand(source logs.Source) []Estimate {
	out := make([]Estimate, sa.n)
	for s, sh := range sa.shards {
		for j, e := range sh.Demand(source) {
			out[j*len(sa.shards)+s] = e
		}
	}
	return out
}

// feedBatchSize is the unit sent to shard workers: routing a click at a
// time over a channel would pay one synchronization per event; batching
// amortizes it ~3 orders of magnitude. At 16 bytes per ClickRef a full
// batch is 16 KiB — small enough to stay cache-resident while it cycles
// router → shard → free list → router.
const feedBatchSize = 1024

// freeList recycles spent ref batches from shard workers back to
// routers, so steady-state routing allocates nothing: the working set
// is a fixed pool of batches cycling through the pipeline instead of a
// fresh slice per feedBatchSize events that the shard immediately
// drops. get
// falls back to allocating and put to dropping when the pool runs dry
// or full, so it is never a synchronization point.
type freeList struct {
	ch chan []ClickRef
}

func newFreeList(size int) *freeList {
	return &freeList{ch: make(chan []ClickRef, size)}
}

// get returns an empty batch with feedBatchSize capacity. The hit/miss
// counters are the pool-sizing signal: a healthy steady state shows
// misses plateau at the pool's fill cost while hits keep climbing.
func (f *freeList) get() []ClickRef {
	select {
	case b := <-f.ch:
		obsFreeHits.Inc()
		return b
	default:
		obsFreeMisses.Inc()
		return make([]ClickRef, 0, feedBatchSize)
	}
}

// put recycles a spent batch.
func (f *freeList) put(b []ClickRef) {
	select {
	case f.ch <- b[:0]:
	default:
	}
}

// startWorkers launches one goroutine per shard, each folding batches
// from its channel into its own Aggregator through the cache-blocked
// columnar FoldBatch — recycled router batches feed straight into the
// columnar fold — and recycling the spent batch. Channels are
// multi-producer safe, so any number of routers may send concurrently.
// The caller must close every channel and then call wait.
func (sa *ShardedAggregator) startWorkers(buffer int) (chans []chan []ClickRef, free *freeList, wait func()) {
	chans = make([]chan []ClickRef, len(sa.shards))
	// Size the pool for every batch that can be in flight at once:
	// each shard channel full, plus one being folded per shard.
	free = newFreeList(len(sa.shards) * (buffer + 1))
	var wg sync.WaitGroup
	for i := range sa.shards {
		chans[i] = make(chan []ClickRef, buffer)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := sa.shards[i]
			for batch := range chans[i] {
				obsShardRefs.AddShard(i, uint64(len(batch))) //repro:obs-ok one add per ~4K-ref batch, not per ref
				sp := spanShardFold.StartT(i)                //repro:obs-ok one span per folded batch
				sh.FoldBatch(batch)
				sp.End()
				free.put(batch)
			}
		}(i)
	}
	return chans, free, wg.Wait
}

// BytesMoved sums the shards' modelled state traffic (see
// Aggregator.BytesMoved). Router and channel traffic is not counted —
// batches cycle through a fixed cache-resident pool. Call only after
// the fold completes (workers joined); it does not synchronize.
func (sa *ShardedAggregator) BytesMoved() uint64 {
	var total uint64
	for _, sh := range sa.shards {
		total += sh.BytesMoved()
	}
	return total
}

// router batches refs per shard for ONE producer goroutine. Multiple
// producers each get their own router over the same shard channels and
// free list; only the channel operations synchronize.
type router struct {
	sa      *ShardedAggregator
	chans   []chan []ClickRef
	free    *freeList
	pending [][]ClickRef
}

func (sa *ShardedAggregator) newRouter(chans []chan []ClickRef, free *freeList) *router {
	r := &router{sa: sa, chans: chans, free: free, pending: make([][]ClickRef, len(chans))}
	for i := range r.pending {
		r.pending[i] = free.get()
	}
	return r
}

// emit routes one global-entity ref to its owning shard's pending
// batch (localizing it on the way); sendShard flushes a full batch.
// The hot path is just localize + append — pending batches are primed
// at construction and replaced on flush, so there is no nil check per
// event and the send path stays out of the inliner's way.
func (r *router) emit(ref ClickRef) {
	i := r.sa.localize(&ref)
	p := append(r.pending[i], ref)
	r.pending[i] = p
	if len(p) >= feedBatchSize {
		r.sendShard(i)
	}
}

// sendShard flushes shard i's pending batch and primes a fresh one.
func (r *router) sendShard(i int) {
	obsRouteBatches.Inc()
	obsRefsRouted.Add(uint64(len(r.pending[i])))
	r.chans[i] <- r.pending[i]
	r.pending[i] = r.free.get()
}

// flush sends every non-empty pending batch at end of stream.
func (r *router) flush() {
	for i, batch := range r.pending {
		if len(batch) > 0 {
			obsRouteBatches.Inc()                 //repro:obs-ok end-of-stream flush: once per shard, not per ref
			obsRefsRouted.Add(uint64(len(batch))) //repro:obs-ok end-of-stream flush: once per shard, not per ref
			r.chans[i] <- batch
		}
		r.pending[i] = nil
	}
}

// Feed starts one worker per shard and returns an emit function that
// routes wire clicks to them, plus a close function that flushes and
// joins the workers. Resolving a wire click to the internal
// representation (an interned-map hit for canonical catalog URLs, the
// general parser for everything else — and real logs are full of
// non-entity URLs) is the expensive stage of replay, so emit only
// batches raw clicks; a pool of resolver goroutines does the
// resolution and routing concurrently, each with its own router over
// the shared shard channels. Foreign clicks drop at the resolvers, so
// shard workers fold pure entity indexes. emit is for a single
// producer goroutine; concurrent producers should use
// GeneratePipeline (simulated streams) or startWorkers-style fan-in
// with one router each. Exposed for callers with their own serial
// click sources (log replay, network ingest). The pool stays because
// resolution is the replay's bottleneck: moving it onto the caller
// goroutine (batches into FeedRefs) measured slower, the caller
// already being busy parsing the log.
func (sa *ShardedAggregator) Feed() (emit func(logs.Click), done func()) {
	chans, free, wait := sa.startWorkers(8)
	resolvers := runtime.GOMAXPROCS(0)
	if resolvers > len(sa.shards) {
		resolvers = len(sa.shards)
	}
	if resolvers < 1 {
		resolvers = 1
	}
	in := make(chan []logs.Click, resolvers)
	var rwg sync.WaitGroup
	for i := 0; i < resolvers; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			r := sa.newRouter(chans, free)
			for batch := range in {
				resolved, dropped := uint64(0), uint64(0)
				for _, c := range batch {
					if ref, ok := sa.refOf(c); ok {
						r.emit(ref)
						resolved++
					} else {
						dropped++
					}
				}
				sa.feedResolved.Add(resolved)
				sa.feedDropped.Add(dropped)
			}
			r.flush()
		}()
	}
	buf := make([]logs.Click, 0, feedBatchSize)
	emit = func(c logs.Click) {
		buf = append(buf, c)
		if len(buf) >= feedBatchSize {
			in <- buf
			buf = make([]logs.Click, 0, feedBatchSize)
		}
	}
	done = func() {
		if len(buf) > 0 {
			in <- buf
		}
		close(in)
		rwg.Wait()
		for i := range chans {
			close(chans[i])
		}
		wait()
	}
	return emit, done
}

// FeedStats reports the cumulative wire-click resolution outcome of
// Feed replays on this aggregator: clicks that resolved to a catalog
// entity and were folded, and clicks dropped (foreign site, non-entity
// URL, unknown source). Read it after the corresponding done() — the
// counters are updated per batch by concurrent resolver workers.
func (sa *ShardedAggregator) FeedStats() (resolved, dropped uint64) {
	return sa.feedResolved.Load(), sa.feedDropped.Load()
}

// FeedRefs is Feed for callers that already hold the internal
// representation — segment-store replay above all: it starts the shard
// workers and returns an emit that routes whole batches of
// global-entity ClickRefs straight to them, bypassing the wire-click
// resolver pool entirely (no URL is parsed, hashed, or even present).
// Refs with out-of-range entities drop at the shard fold exactly as
// AddRef drops them. emit is for a SINGLE producer goroutine (routing
// is just localize + append, far off the replay critical path); the
// batch slice is only read during the call and never retained, so
// callers may reuse it — seg.Reader.Replay's reused decode batch plugs
// in directly. done flushes pending batches and joins the workers;
// results are ready after it returns.
func (sa *ShardedAggregator) FeedRefs() (emit func(batch []ClickRef), done func()) {
	chans, free, wait := sa.startWorkers(8)
	r := sa.newRouter(chans, free)
	emit = func(batch []ClickRef) {
		for _, ref := range batch {
			r.emit(ref)
		}
	}
	done = func() {
		r.flush()
		for i := range chans {
			close(chans[i])
		}
		wait()
	}
	return emit, done
}
