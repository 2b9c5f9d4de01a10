// Package demand models §4: per-entity user demand on three review-rich
// sites (Amazon products, Yelp businesses, IMDb titles), measured as
// unique cookies visiting the entity URL in a year of search and browse
// logs. It generates catalogs whose demand-vs-review-count coupling
// reproduces the paper's findings, simulates raw click logs, and
// aggregates them back into demand estimates.
//
// The model's calibration is constants, not configuration: each site's
// catalog shape is its row of the table in shapeOf (catalog.go), and
// the browse stream's head tilt is browseHeadBias (simulate.go).
// Recalibrating either changes every study and served demand body, so
// it means bumping core.HashVersion and regenerating both golden files
// (internal/report/testdata/study_outputs.txt and
// internal/serve/testdata/served_bodies.txt); the golden SHA-256 stream
// in golden_test.go moves too.
package demand

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dist"
	"repro/internal/logs"
	"repro/internal/textgen"
)

// CatEntity is one catalog entity on a studied site.
type CatEntity struct {
	ID      int
	Key     string // URL entity key (ASIN / biz slug / ttID)
	Name    string
	Reviews int     // existing review count n
	URL     string  // canonical entity URL
	demand  float64 // latent mean demand (visits), not exposed
}

// Catalog is the entity inventory of one site. Use it by pointer: the
// lookup accessors memoize on first use.
type Catalog struct {
	Site     logs.Site
	Entities []CatEntity

	keyOnce sync.Once
	byKey   map[string]int
	urlOnce sync.Once
	byURL   map[string]int

	aliasMu sync.Mutex
	aliases [numSources]*dist.Alias // by srcIdx
}

// demandAlias returns the source's alias table over latent demand,
// tilted toward the head by browseHeadBias for browse traffic, built
// once per source and shared: samplers across runs, worker fleets and
// seeds reuse it (the table is immutable and the RNG lives with the
// caller).
func (c *Catalog) demandAlias(source logs.Source) (*dist.Alias, error) {
	si := srcIdx(source)
	c.aliasMu.Lock()
	defer c.aliasMu.Unlock()
	if a := c.aliases[si]; a != nil {
		return a, nil
	}
	weights := make([]float64, len(c.Entities))
	for i, e := range c.Entities {
		weights[i] = e.demand
		if source == logs.Browse {
			weights[i] *= math.Pow(float64(i+1), -browseHeadBias)
		}
	}
	a, err := dist.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("demand: alias over latent demand: %w", err)
	}
	c.aliases[si] = a
	return a, nil
}

// CatalogConfig parameterizes catalog generation: which site, how many
// entities and the seed. The catalog's shape comes from the site's row
// of the calibration table, shapeOf.
type CatalogConfig struct {
	Site logs.Site
	N    int
	Seed uint64
}

// siteShape is one site's calibrated catalog shape.
type siteShape struct {
	// demandExp is the Zipf exponent of latent demand over popularity
	// rank; larger means more head-concentrated (IMDb > Amazon > Yelp).
	demandExp float64
	// reviewExp is the power-law decay of review counts with rank.
	reviewExp float64
	// maxReviews is the expected review count of the rank-1 entity.
	maxReviews int
	// baseDemand is the expected yearly visits of the rank-1 entity.
	baseDemand float64
	// reviewNoise is the sigma of log-normal noise on review counts:
	// large for Amazon (review propensity varies wildly across
	// products, which also keeps the zero-review bin's demand baseline
	// comparable to its neighbors'), moderate elsewhere.
	reviewNoise float64
	// cutoffReviews places a demand cutoff at the whole rank whose
	// expected review count it is (0: none): interest in tail titles
	// decays faster than any power law (§4.3.2). cutoffPower shapes
	// its steepness.
	cutoffReviews float64
	cutoffPower   float64
}

// shapeOf is the calibration table: it returns the site's row, or false
// for an unknown site. The orderings baked in:
//
//   - demand concentration IMDb > Amazon > Yelp (Fig 6),
//   - review counts grow faster than demand toward the head for Yelp
//     and Amazon (so VA(n)/VA(0) falls with n, Fig 8 a–b),
//   - IMDb tail interest decays faster than review availability (so
//     VA(n)/VA(0) peaks at mid-popularity, Fig 8c).
//
// IMDb's head has demand ∝ reviews^(1.00/1.25), sublinear even with the
// browse head bias added, so VA falls at the head. Beyond the cutoff,
// demand ∝ reviews^((1.00+1.20)/1.25), superlinear, so VA rises leaving
// the tail. The cutoff sits where the expected review count is 30,
// putting the VA peak at mid popularity (Fig 8c) regardless of
// catalog size.
func shapeOf(site logs.Site) (siteShape, bool) {
	switch site {
	case logs.Yelp:
		return siteShape{demandExp: 0.55, reviewExp: 0.85, maxReviews: 1100, baseDemand: 40000, reviewNoise: 0.5}, true
	case logs.Amazon:
		return siteShape{demandExp: 0.80, reviewExp: 1.00, maxReviews: 1600, baseDemand: 80000, reviewNoise: 0.95}, true
	case logs.IMDb:
		return siteShape{demandExp: 1.00, reviewExp: 1.25, maxReviews: 6000, baseDemand: 150000, reviewNoise: 0.45,
			cutoffReviews: 30, cutoffPower: 1.2}, true
	}
	return siteShape{}, false
}

// SiteDefaults returns the catalog configuration for one site at
// inventory size n.
func SiteDefaults(site logs.Site, n int, seed uint64) CatalogConfig {
	return CatalogConfig{Site: site, N: n, Seed: seed}
}

// GenerateCatalog builds a deterministic catalog. It returns an error
// for an unknown site or non-positive N.
func GenerateCatalog(cfg CatalogConfig) (*Catalog, error) {
	shape, ok := shapeOf(cfg.Site)
	if !ok {
		return nil, fmt.Errorf("demand: unknown site %q", cfg.Site)
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("demand: need N > 0, got %d", cfg.N)
	}
	rng := dist.NewRNG(cfg.Seed ^ 0xca7a109)
	noise, err := dist.NewLogNormal(0, shape.reviewNoise)
	if err != nil {
		return nil, fmt.Errorf("demand: review noise: %w", err)
	}
	cat := &Catalog{Site: cfg.Site, Entities: make([]CatEntity, cfg.N)}
	var cutoff float64
	if shape.cutoffReviews > 0 {
		cutoff = float64(int(math.Pow(float64(shape.maxReviews)/shape.cutoffReviews, 1/shape.reviewExp)))
	}
	for i := 0; i < cfg.N; i++ {
		rank := float64(i + 1)
		d := shape.baseDemand * math.Pow(rank, -shape.demandExp)
		if cutoff > 0 {
			d /= 1 + math.Pow(rank/cutoff, shape.cutoffPower)
		}
		meanReviews := float64(shape.maxReviews) * math.Pow(rank, -shape.reviewExp) * noise.Sample(rng)
		e := CatEntity{
			ID:      i,
			Key:     entityKey(cfg.Site, rng, i),
			Name:    entityName(cfg.Site, rng),
			Reviews: dist.Poisson(rng, meanReviews),
			demand:  d,
		}
		url, err := logs.EntityURL(cfg.Site, e.Key)
		if err != nil {
			return nil, err
		}
		e.URL = url
		cat.Entities[i] = e
	}
	return cat, nil
}

// entityKey builds the site-appropriate URL key for entity i.
func entityKey(site logs.Site, rng *dist.RNG, i int) string {
	switch site {
	case logs.Amazon:
		const chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
		b := make([]byte, 10)
		b[0] = 'B'
		for j := 1; j < 10; j++ {
			b[j] = chars[rng.Intn(len(chars))]
		}
		return string(b)
	case logs.Yelp:
		return fmt.Sprintf("biz-slug-%d", i)
	default: // IMDb
		return fmt.Sprintf("tt%07d", i+1)
	}
}

func entityName(site logs.Site, rng *dist.RNG) string {
	switch site {
	case logs.Amazon:
		return textgen.ProductTitle(rng)
	case logs.Yelp:
		return textgen.BusinessName(rng, "restaurants")
	default:
		return textgen.MovieTitle(rng)
	}
}

// ByKey returns a key -> entity index lookup map, built once per
// catalog and shared: callers (aggregators across shard counts and
// runs) must treat it as read-only.
func (c *Catalog) ByKey() map[string]int {
	c.keyOnce.Do(func() {
		c.byKey = make(map[string]int, len(c.Entities))
		for i, e := range c.Entities {
			c.byKey[e.Key] = i
		}
	})
	return c.byKey
}

// ByURL returns a canonical-entity-URL -> entity index lookup map, the
// aggregator's interned fast path for wire clicks, built once per
// catalog and shared read-only like ByKey. It is consistent with ByKey
// by construction: every entity's URL renders from its key via
// logs.EntityURL, the pinned inverse of logs.ParseEntityURL.
func (c *Catalog) ByURL() map[string]int {
	c.urlOnce.Do(func() {
		c.byURL = make(map[string]int, len(c.Entities))
		for i, e := range c.Entities {
			c.byURL[e.URL] = i
		}
	})
	return c.byURL
}

// LatentDemand exposes the latent mean demand of entity i for
// calibration tests; production analyses must use simulated logs.
//
//repro:testonly-ok valueadd's calibration tests read the latent demand
func (c *Catalog) LatentDemand(i int) float64 { return c.Entities[i].demand }
