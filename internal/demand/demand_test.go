package demand

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/logs"
)

func testCatalog(t *testing.T, site logs.Site, n int) *Catalog {
	t.Helper()
	cat, err := GenerateCatalog(SiteDefaults(site, n, 5))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// sampler returns src's sampler for (cat, cfg) with defaults applied.
func sampler(t *testing.T, cat *Catalog, cfg SimConfig, src logs.Source) *sourceSampler {
	t.Helper()
	cfg, err := withSimDefaults(cfg, len(cat.Entities))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := newSourceSampler(cat, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// serialRefs is the canonical click stream for (cat, cfg) — all search
// events by index, then all browse events — generated on the calling
// goroutine straight from the per-source samplers: the reference every
// parallel generation path is held to.
func serialRefs(t *testing.T, cat *Catalog, cfg SimConfig) []ClickRef {
	t.Helper()
	var out []ClickRef
	for _, src := range sources {
		sp := sampler(t, cat, cfg, src)
		sp.generateRefs(0, sp.cfg.Events, func(r ClickRef) bool {
			out = append(out, r)
			return true
		})
	}
	return out
}

// serialFold folds refs through the scalar AddRef oracle.
func serialFold(cat *Catalog, refs []ClickRef) *Aggregator {
	agg := NewAggregator(cat)
	for _, r := range refs {
		agg.AddRef(r)
	}
	return agg
}

// wireClicks materializes refs to the wire representation.
func wireClicks(cat *Catalog, refs []ClickRef) []logs.Click {
	out := make([]logs.Click, len(refs))
	for i, r := range refs {
		out[i] = r.Click(cat)
	}
	return out
}

// feedClicks replays wire clicks through a ShardedAggregator's Feed.
func feedClicks(cat *Catalog, shards int, clicks []logs.Click) *ShardedAggregator {
	sa := NewShardedAggregator(cat, shards)
	emit, done := sa.Feed()
	for _, c := range clicks {
		emit(c)
	}
	done()
	return sa
}

func TestGenerateCatalogValidation(t *testing.T) {
	if _, err := GenerateCatalog(CatalogConfig{Site: "ebay", N: 10}); err == nil {
		t.Error("unknown site should fail")
	}
	if _, err := GenerateCatalog(CatalogConfig{Site: logs.Yelp, N: 0}); err == nil {
		t.Error("N=0 should fail")
	}
}

func TestGenerateCatalogDefaultsApplied(t *testing.T) {
	cat, err := GenerateCatalog(CatalogConfig{Site: logs.Yelp, N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Entities) != 100 {
		t.Fatalf("entities = %d", len(cat.Entities))
	}
	if cat.LatentDemand(0) <= 0 {
		t.Error("zero-config catalog should pick site defaults")
	}
}

func TestCatalogDeterministic(t *testing.T) {
	a := testCatalog(t, logs.IMDb, 200)
	b := testCatalog(t, logs.IMDb, 200)
	for i := range a.Entities {
		if a.Entities[i] != b.Entities[i] {
			t.Fatalf("entity %d differs", i)
		}
	}
}

func TestCatalogKeysUniqueAndParsable(t *testing.T) {
	for _, site := range logs.Sites {
		cat := testCatalog(t, site, 300)
		seen := map[string]bool{}
		for _, e := range cat.Entities {
			if seen[e.Key] {
				t.Fatalf("%s: duplicate key %q", site, e.Key)
			}
			seen[e.Key] = true
			gotSite, key, ok := logs.ParseEntityURL(e.URL)
			if !ok || gotSite != site || key != e.Key {
				t.Fatalf("%s: URL %q does not parse back to key %q", site, e.URL, e.Key)
			}
		}
	}
}

func TestCatalogDemandDecaysWithRank(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 500)
	if cat.LatentDemand(0) <= cat.LatentDemand(499) {
		t.Error("head demand should exceed tail demand")
	}
	for i := 1; i < 500; i++ {
		if cat.LatentDemand(i) > cat.LatentDemand(i-1)+1e-9 {
			t.Fatalf("latent demand not monotone at rank %d", i)
		}
	}
}

func TestCatalogReviewsSkewToHead(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 1000)
	head, tail := 0, 0
	for i := 0; i < 100; i++ {
		head += cat.Entities[i].Reviews
	}
	for i := 900; i < 1000; i++ {
		tail += cat.Entities[i].Reviews
	}
	if head <= 5*tail {
		t.Errorf("reviews not head-skewed: head=%d tail=%d", head, tail)
	}
}

func TestIMDbTailCutoff(t *testing.T) {
	imdb := testCatalog(t, logs.IMDb, 1000)
	yelp := testCatalog(t, logs.Yelp, 1000)
	// IMDb demand ratio head/tail must exceed Yelp's by a wide margin.
	imdbRatio := imdb.LatentDemand(0) / imdb.LatentDemand(999)
	yelpRatio := yelp.LatentDemand(0) / yelp.LatentDemand(999)
	if imdbRatio < 10*yelpRatio {
		t.Errorf("IMDb concentration %v not >> Yelp %v", imdbRatio, yelpRatio)
	}
}

func TestSimulateAndAggregate(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 200)
	refs := serialRefs(t, cat, SimConfig{Events: 20000, Cookies: 5000, Seed: 3})
	if len(refs) != 40000 { // events per source × 2 sources
		t.Fatalf("emitted %d clicks, want 40000", len(refs))
	}
	agg := serialFold(cat, refs)
	for _, src := range []logs.Source{logs.Search, logs.Browse} {
		ests := agg.Demand(src)
		totalVisits := 0
		for _, e := range ests {
			totalVisits += e.Visits
			if e.UniqueCookies > e.Visits {
				t.Fatalf("%s: uniques %d > visits %d", src, e.UniqueCookies, e.Visits)
			}
		}
		if totalVisits != 20000 {
			t.Errorf("%s: total visits = %d, want 20000", src, totalVisits)
		}
		// Head entity must out-demand the tail entity.
		if ests[0].UniqueCookies <= ests[199].UniqueCookies {
			t.Errorf("%s: head demand %d <= tail %d", src,
				ests[0].UniqueCookies, ests[199].UniqueCookies)
		}
	}
}

// TestSimulateEmptyCatalog: every generation entry point rejects an
// empty catalog with an error.
func TestSimulateEmptyCatalog(t *testing.T) {
	cat := &Catalog{Site: logs.Yelp}
	if err := GenerateOrderedRefs(cat, SimConfig{}, PipelineConfig{Generators: 1}, func(ClickRef) error { return nil }); err == nil {
		t.Error("empty catalog should fail")
	}
	if _, err := withSimDefaults(SimConfig{}, 0); err == nil {
		t.Error("withSimDefaults should reject an empty catalog")
	}
}

// TestSimConfigRejectsNegativeSizes: a negative Events or Cookies is an
// error from every generation entry point — before any worker starts —
// not a generator-goroutine panic or a silently empty stream.
func TestSimConfigRejectsNegativeSizes(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 20)
	for _, cfg := range []SimConfig{{Events: -5}, {Cookies: -1}, {Events: -1, Cookies: -1}} {
		if _, err := GeneratePipeline(cat, cfg, PipelineConfig{}); err == nil {
			t.Errorf("GeneratePipeline(%+v) should fail", cfg)
		}
		emitted := 0
		if err := GenerateOrderedRefs(cat, cfg, PipelineConfig{}, func(ClickRef) error {
			emitted++
			return nil
		}); err == nil {
			t.Errorf("GenerateOrderedRefs(%+v) should fail", cfg)
		}
		if emitted != 0 {
			t.Errorf("GenerateOrderedRefs(%+v) emitted %d refs before failing", cfg, emitted)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 50)
	cfg := SimConfig{Events: 500, Cookies: 100, Seed: 9}
	a, b := serialRefs(t, cat, cfg), serialRefs(t, cat, cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("click %d differs", i)
		}
	}
}

// TestAggregatorIgnoresForeignClicks: wire clicks naming another site,
// an entity missing from the catalog, a non-entity page or an unknown
// source drop at Feed's resolvers and are counted as dropped.
func TestAggregatorIgnoresForeignClicks(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 10)
	sa := feedClicks(cat, 3, []logs.Click{
		{Source: logs.Search, Cookie: 1, URL: "http://imdb.com/title/tt0000001/"},
		{Source: logs.Search, Cookie: 1, URL: "http://yelp.com/biz/not-in-catalog"},
		{Source: "weird", Cookie: 1, URL: cat.Entities[0].URL},
		{Source: logs.Search, Cookie: 1, URL: "http://yelp.com/events/x"},
	})
	if resolved, dropped := sa.FeedStats(); resolved != 0 || dropped != 4 {
		t.Fatalf("FeedStats = (%d, %d), want (0, 4)", resolved, dropped)
	}
	for _, src := range sources {
		for _, e := range sa.Demand(src) {
			if e.Visits != 0 {
				t.Errorf("foreign click counted: %+v", e)
			}
		}
	}
}

func TestUniqueCookieSaturation(t *testing.T) {
	// With a tiny cookie pool, unique counts must cap at the pool size.
	cat := testCatalog(t, logs.Yelp, 5)
	agg := serialFold(cat, serialRefs(t, cat, SimConfig{Events: 50000, Cookies: 20, Seed: 4}))
	for _, e := range agg.Demand(logs.Search) {
		if e.UniqueCookies > 20 {
			t.Errorf("uniques %d exceed cookie pool", e.UniqueCookies)
		}
	}
}

func TestBrowseHeadBiasShapesBrowseTraffic(t *testing.T) {
	// browseHeadBias tilts the browse stream toward the head: with the
	// same event count per source, the top 10 of 100 entities draw more
	// browse visits than search visits, and the bottom half fewer.
	cat := testCatalog(t, logs.Yelp, 100)
	agg := serialFold(cat, serialRefs(t, cat, SimConfig{Events: 30000, Cookies: 5000, Seed: 11}))
	visits := func(src logs.Source, lo, hi int) int {
		n := 0
		for _, e := range agg.Demand(src)[lo:hi] {
			n += e.Visits
		}
		return n
	}
	if search, browse := visits(logs.Search, 0, 10), visits(logs.Browse, 0, 10); browse <= search {
		t.Errorf("head visits: browse %d, search %d; want browse > search", browse, search)
	}
	if search, browse := visits(logs.Search, 50, 100), visits(logs.Browse, 50, 100); browse >= search {
		t.Errorf("tail visits: browse %d, search %d; want browse < search", browse, search)
	}
}

func TestUniqueVector(t *testing.T) {
	v := UniqueVector([]Estimate{{UniqueCookies: 3}, {UniqueCookies: 0}, {UniqueCookies: 7}})
	if len(v) != 3 || v[0] != 3 || v[2] != 7 {
		t.Errorf("UniqueVector = %v", v)
	}
}

func TestDemandCDF(t *testing.T) {
	d := []float64{100, 10, 5, 1, 0, 0, 0, 0, 0, 0}
	pts, err := DemandCDF(d, 10)
	if err != nil {
		t.Fatal(err)
	}
	last := pts[len(pts)-1]
	if math.Abs(last.DemandFrac-1) > 1e-12 || math.Abs(last.InventoryFrac-1) > 1e-12 {
		t.Errorf("CDF must end at (1,1): %+v", last)
	}
	// Top 10% of inventory (1 entity) carries 100/116 of demand.
	if math.Abs(pts[0].DemandFrac-100.0/116.0) > 1e-12 {
		t.Errorf("first point = %+v", pts[0])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].DemandFrac+1e-12 < pts[i-1].DemandFrac {
			t.Error("CDF not monotone")
		}
	}
}

func TestDemandCDFErrors(t *testing.T) {
	if _, err := DemandCDF(nil, 10); err == nil {
		t.Error("empty vector should fail")
	}
	if _, err := DemandCDF([]float64{0, 0}, 10); err == nil {
		t.Error("zero demand should fail")
	}
}

func TestDemandPDF(t *testing.T) {
	d := make([]float64, 1000)
	for i := range d {
		d[i] = float64(1000 - i)
	}
	pts, err := DemandPDF(d)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Rank != 1 {
		t.Errorf("first rank = %d", pts[0].Rank)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Rank <= pts[i-1].Rank {
			t.Error("ranks not increasing")
		}
		if pts[i].DemandFrac > pts[i-1].DemandFrac+1e-12 {
			t.Error("PDF should be non-increasing for sorted demand")
		}
	}
}

func TestTopShareOrdering(t *testing.T) {
	// Demand concentration must order IMDb > Amazon > Yelp (Fig 6).
	shares := map[logs.Site]float64{}
	for _, site := range logs.Sites {
		cat := testCatalog(t, site, 2000)
		d := make([]float64, len(cat.Entities))
		for i := range d {
			d[i] = cat.LatentDemand(i)
		}
		shares[site] = TopShare(d, 0.2)
	}
	if !(shares[logs.IMDb] > shares[logs.Amazon] && shares[logs.Amazon] > shares[logs.Yelp]) {
		t.Errorf("top-20%% shares: imdb=%v amazon=%v yelp=%v",
			shares[logs.IMDb], shares[logs.Amazon], shares[logs.Yelp])
	}
	if shares[logs.IMDb] < 0.85 {
		t.Errorf("IMDb top-20%% share = %v, want ~0.9+", shares[logs.IMDb])
	}
	if shares[logs.Yelp] > 0.8 {
		t.Errorf("Yelp top-20%% share = %v, want flatter", shares[logs.Yelp])
	}
}

func TestTopShareDegenerate(t *testing.T) {
	if TopShare(nil, 0.2) != 0 || TopShare([]float64{1}, 0) != 0 {
		t.Error("degenerate TopShare should be 0")
	}
	if TopShare([]float64{0, 0}, 0.5) != 0 {
		t.Error("zero demand TopShare should be 0")
	}
	if TopShare([]float64{1, 1}, 5) != 1 {
		t.Error("frac > 1 should clamp")
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTopShare(t *testing.T) {
	// 10 elements: one holds 91 of 100 total mass.
	xs := []float64{91, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if s := TopShare(xs, 0.1); !almostEq(s, 0.91, 1e-12) {
		t.Errorf("top-10%% share = %v, want 0.91", s)
	}
	if s := TopShare(xs, 1); !almostEq(s, 1, 1e-12) {
		t.Errorf("full share = %v, want 1", s)
	}
	if s := TopShare(xs, 2); !almostEq(s, 1, 1e-12) {
		t.Errorf("frac>1 clamps to 1, got %v", s)
	}
	if TopShare(nil, 0.5) != 0 || TopShare(xs, 0) != 0 {
		t.Error("degenerate TopShare should be 0")
	}
}

func TestTopShareMonotoneInFrac(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		var sum float64
		for i, v := range raw {
			xs[i] = float64(v)
			sum += xs[i]
		}
		if sum == 0 {
			return true
		}
		prev := 0.0
		for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
			s := TopShare(xs, frac)
			if s+1e-9 < prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
