package demand

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/logs"
)

// sources lists the two traffic streams every simulation generates, in
// canonical order: the full click stream is the search stream followed
// by the browse stream, each in event-index order.
var sources = []logs.Source{logs.Search, logs.Browse}

// defaultBrowseHeadBias is the browse-traffic demand tilt applied when
// SimConfig.BrowseHeadBias is nil.
const defaultBrowseHeadBias = 0.15

// SimConfig controls click-log simulation for one catalog.
type SimConfig struct {
	// Events is the number of clicks to generate per source.
	Events int
	// Cookies is the size of the user (cookie) population.
	Cookies int
	// Seed drives the simulation.
	Seed uint64
	// BrowseHeadBias is added to the demand exponent for browse traffic:
	// browse patterns are shaped by on-site promotion of popular items
	// (§4.1), so browse demand is more head-concentrated than search.
	// nil selects the default (0.15); use Bias to set an explicit value,
	// including zero (browse demand shaped exactly like search).
	BrowseHeadBias *float64
}

// Bias wraps an explicit browse-head-bias value for SimConfig, making
// an explicit zero distinguishable from "use the default".
func Bias(v float64) *float64 { return &v }

// withSimDefaults validates cfg for a catalog of n entities and fills
// its zero (or nil) fields. Every generation entry point resolves its
// config here, so an empty catalog or a negative size fails up front
// instead of panicking inside a generator worker (a negative Cookies)
// or silently generating nothing (a negative Events).
func withSimDefaults(cfg SimConfig, n int) (SimConfig, error) {
	if n == 0 {
		return cfg, fmt.Errorf("demand: empty catalog")
	}
	if cfg.Events < 0 || cfg.Cookies < 0 {
		return cfg, fmt.Errorf("demand: SimConfig.Events and Cookies must be non-negative")
	}
	if cfg.Events == 0 {
		cfg.Events = 40 * n
	}
	if cfg.Cookies == 0 {
		cfg.Cookies = 8 * n
	}
	if cfg.BrowseHeadBias == nil {
		cfg.BrowseHeadBias = Bias(defaultBrowseHeadBias)
	}
	return cfg, nil
}

// clickDraws is the exact number of RNG draws one click consumes: two
// for the alias sample, one for the cookie, one for the day. The
// generator keeps this budget fixed so event i of a source stream
// always begins at draw i*clickDraws — the leapfrog contract that lets
// dist.RNG.Jump position a worker at any event offset (see the
// internal/dist package documentation). Any change to the per-click
// draw count is caught by the golden stream test.
const clickDraws = 4

// sourceStreamID names each source's substream for dist.StreamSeed.
func sourceStreamID(s logs.Source) uint64 {
	if s == logs.Search {
		return 1
	}
	return 2
}

// sourceSampler is the immutable per-source sampling state: the alias
// table over (bias-tilted) latent demand plus the resolved config. It
// is safe for concurrent generateRefs calls, each over its own event
// range with its own RNG.
type sourceSampler struct {
	cfg    SimConfig // defaults applied
	source logs.Source
	alias  *dist.Alias
}

func newSourceSampler(cat *Catalog, cfg SimConfig, source logs.Source) (*sourceSampler, error) {
	bias := 0.0
	if source == logs.Browse {
		bias = *cfg.BrowseHeadBias
	}
	alias, err := cat.demandAlias(source, bias)
	if err != nil {
		return nil, err
	}
	return &sourceSampler{cfg: cfg, source: source, alias: alias}, nil
}

// generateRefs emits events [lo, hi) of the source's click stream as
// ClickRefs — the one generator every consumer builds on. The
// stream is a pure function of (seed, source, event index): the RNG
// seeds from dist.StreamSeed(seed, source) and jumps to draw
// lo*clickDraws, and every event consumes exactly clickDraws draws, so
// any partition of the event index space concatenates to the unsplit
// stream, and hi may run past cfg.Events: the stream extends
// deterministically. emit returning false stops generation early.
func (sp *sourceSampler) generateRefs(lo, hi int, emit func(ClickRef) bool) {
	rng := dist.NewRNG(dist.StreamSeed(sp.cfg.Seed, sourceStreamID(sp.source)))
	rng.Jump(uint64(lo) * clickDraws)
	src := uint8(srcIdx(sp.source))
	for ev := lo; ev < hi; ev++ {
		e := sp.alias.Sample(rng)                      // draws 1–2
		cookie := uint64(rng.Intn(sp.cfg.Cookies)) + 1 // draw 3
		day := rng.Intn(365)                           // draw 4
		if !emit(ClickRef{Cookie: cookie, Entity: int32(e), Day: int16(day), Src: src}) {
			return
		}
	}
}

// Estimate is the aggregated demand of one entity from one source.
type Estimate struct {
	// Visits is the raw click count.
	Visits int
	// UniqueCookies is the paper's demand measure: distinct cookies
	// visiting the entity (§4.1: search uses per-month uniques summed;
	// browse uses per-year uniques — both are distinct-count demands).
	UniqueCookies int
}

// Aggregator folds a ClickRef stream into exact per-entity demand
// estimates over a dense entity index space. FoldBatch (columnar.go)
// is the production fold — every ShardedAggregator shard worker runs
// it — and AddRef is its scalar reference, the oracle FoldBatch is
// pinned against. Aggregator holds columns only: resolving wire clicks
// to refs is ShardedAggregator's job (Feed).
//
// Per-entity state is struct-of-arrays: one dense int32 visit-count
// column and one cookie-set column per source (sourceCols), not an
// array of per-entity structs. The visit column packs 16 entities per
// cache line where the old array-of-structs layout packed half an
// entity, so the pure-counting half of a fold touches ~32× fewer
// lines, and the fat cookie sets no longer ride along on every visit
// increment — the layout PIMDAL-style bandwidth analysis asks for.
type Aggregator struct {
	hint    uint64 // cookie-population bound; see SetCookieHint
	perSrc  [numSources]sourceCols
	moved   uint64 // modelled state bytes; see BytesMoved
	scratch foldScratch
	// arena backs the cookie columns' tables and bitmaps (see
	// wordArena): per-entity regime transitions carve slices from
	// shared chunks instead of allocating individually.
	arena wordArena
}

// sourceCols is one source's per-entity aggregation state in
// struct-of-arrays layout: parallel dense columns indexed by entity.
type sourceCols struct {
	// visits saturates at MaxInt32; see AddRef.
	visits []int32
	// cookies are the exact distinct-cookie sets; lazily graduated
	// (cookieSet zero value is an empty inline set), so tail entities
	// cost their column slot and nothing else.
	cookies []cookieSet
}

// NewAggregator returns an Aggregator over cat's entities.
//
//repro:testonly-ok the root bench_test.go BenchmarkGenerate/serial-ref folds into it
func NewAggregator(cat *Catalog) *Aggregator {
	return newAggregator(len(cat.Entities))
}

// newAggregator returns an Aggregator over entities [0, n).
func newAggregator(n int) *Aggregator {
	var cols [numSources]sourceCols
	for i := range cols {
		cols[i] = sourceCols{
			visits:  make([]int32, n),
			cookies: make([]cookieSet, n),
		}
	}
	return &Aggregator{perSrc: cols}
}

// BytesMoved returns the modelled aggregation-state traffic of every
// fold so far, in bytes: refMoveBytes per ref consumed, visitMoveBytes
// per visit-counter touch (per ref scalar, per distinct entity per
// block for FoldBatch), and the cookie-structure bytes cookieSet.add
// reports. It is an accounting model computed from column widths and
// touch counts — not a hardware counter — so benchmarks can track
// bytes moved per click across layout changes. Not synchronized:
// read it only after folding completes.
func (a *Aggregator) BytesMoved() uint64 { return a.moved }

// SetCookieHint tells the aggregator the cookie population is bounded
// by [1, max] — true for any stream SimConfig{Cookies: max} generated —
// letting heavily-visited entities count distinct cookies in a dense
// bitmap instead of a growing hash table. It is purely a performance
// hint: estimates are exact with or without it, cookies outside the
// bound (replayed external logs) still count correctly, and changing
// the hint mid-fold is safe — each converted set is bounded by its own
// bitmap, never by the current hint. GeneratePipeline, which builds its
// own aggregator, sets it automatically.
func (a *Aggregator) SetCookieHint(max int) {
	if max > 0 {
		a.hint = uint64(max)
	}
}

// Demand returns the per-entity estimates for one source, indexed by
// entity ID.
func (a *Aggregator) Demand(source logs.Source) []Estimate {
	si := srcIdx(source)
	if si < 0 {
		return []Estimate{}
	}
	col := &a.perSrc[si]
	out := make([]Estimate, len(col.visits))
	for i := range out {
		out[i] = Estimate{Visits: int(col.visits[i]), UniqueCookies: col.cookies[i].len()}
	}
	return out
}

// UniqueVector extracts the unique-cookie demand vector from estimates.
func UniqueVector(ests []Estimate) []float64 {
	out := make([]float64, len(ests))
	for i, e := range ests {
		out[i] = float64(e.UniqueCookies)
	}
	return out
}
