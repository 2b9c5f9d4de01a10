// Package demand models §4: per-entity user demand on three review-rich
// sites (Amazon products, Yelp businesses, IMDb titles), measured as
// unique cookies visiting the entity URL in a year of search and browse
// logs. It generates catalogs whose demand-vs-review-count coupling
// reproduces the paper's findings, simulates raw click logs, and
// aggregates them back into demand estimates.
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
	aliases map[aliasKey]*dist.Alias
}

// aliasKey identifies one memoized demand alias table: the sampling
// weights depend only on the latent demand vector and the source's
// head-bias tilt.
type aliasKey struct {
	source logs.Source
	bias   float64
}

// demandAlias returns the alias table over bias-tilted latent demand,
// built once per (source, bias) and shared: samplers across runs,
// worker fleets and seeds reuse it (the table is immutable and the RNG
// lives with the caller).
func (c *Catalog) demandAlias(source logs.Source, bias float64) (*dist.Alias, error) {
	key := aliasKey{source: source, bias: bias}
	c.aliasMu.Lock()
	defer c.aliasMu.Unlock()
	if a, ok := c.aliases[key]; ok {
		return a, nil
	}
	weights := make([]float64, len(c.Entities))
	for i, e := range c.Entities {
		// Browse head bias: tilt latent demand by rank^-bias.
		weights[i] = e.demand
		if bias != 0 {
			weights[i] *= math.Pow(float64(i+1), -bias)
		}
	}
	a, err := dist.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("demand: alias over latent demand: %w", err)
	}
	if c.aliases == nil {
		c.aliases = make(map[aliasKey]*dist.Alias, 2)
	}
	c.aliases[key] = a
	return a, nil
}

// CatalogConfig parameterizes catalog generation. Zero-valued shape
// fields take the per-site defaults (SiteDefaults).
type CatalogConfig struct {
	Site logs.Site
	N    int
	Seed uint64

	// DemandExp is the Zipf exponent of latent demand over popularity
	// rank; larger means more head-concentrated (IMDb > Amazon > Yelp).
	DemandExp float64
	// TailCutoffFrac places a demand cutoff at rank = TailCutoffFrac*N;
	// 0 disables. IMDb uses a cutoff: interest in tail titles decays
	// faster than any power law (§4.3.2).
	TailCutoffFrac float64
	// TailCutoffRank places the cutoff at an absolute rank, overriding
	// TailCutoffFrac when positive. SiteDefaults positions it so the
	// demand-vs-reviews coupling flips from superlinear (tail) to
	// sublinear (head) at a few tens of reviews, producing the Fig 8c
	// mid-popularity hump regardless of catalog size.
	TailCutoffRank int
	// CutoffPower shapes the cutoff steepness.
	CutoffPower float64
	// ReviewExp is the power-law decay of review counts with rank.
	ReviewExp float64
	// MaxReviews is the expected review count of the rank-1 entity.
	MaxReviews int
	// ReviewNoise is the sigma of log-normal noise on review counts.
	ReviewNoise float64
	// BaseDemand is the expected yearly visits of the rank-1 entity.
	BaseDemand float64
}

// SiteDefaults returns the calibrated configuration for one site at
// inventory size n. The orderings baked in:
//
//   - demand concentration IMDb > Amazon > Yelp (Fig 6),
//   - review counts grow faster than demand toward the head for Yelp
//     and Amazon (so VA(n)/VA(0) falls with n, Fig 8 a–b),
//   - IMDb tail interest decays faster than review availability (so
//     VA(n)/VA(0) peaks at mid-popularity, Fig 8c).
func SiteDefaults(site logs.Site, n int, seed uint64) CatalogConfig {
	cfg := CatalogConfig{Site: site, N: n, Seed: seed}
	switch site {
	case logs.Yelp:
		cfg.DemandExp = 0.55
		cfg.ReviewExp = 0.85
		cfg.MaxReviews = 1100
		cfg.BaseDemand = 40000
	case logs.Amazon:
		cfg.DemandExp = 0.80
		cfg.ReviewExp = 1.00
		cfg.MaxReviews = 1600
		cfg.BaseDemand = 80000
	case logs.IMDb:
		// Head: demand ∝ reviews^(1.00/1.25) — sublinear even with the
		// browse head bias added, so VA falls at the head. Beyond the
		// cutoff: demand ∝ reviews^((1.00+1.20)/1.25) —
		// superlinear, so VA rises leaving the tail. The cutoff rank is
		// placed where the expected review count is ~30, putting the VA
		// peak at mid popularity (Fig 8c).
		cfg.DemandExp = 1.00
		cfg.ReviewExp = 1.25
		cfg.MaxReviews = 6000
		cfg.BaseDemand = 150000
		cfg.CutoffPower = 1.2
		cfg.TailCutoffRank = int(math.Pow(float64(cfg.MaxReviews)/30, 1/cfg.ReviewExp))
	}
	// Review-count noise: large for Amazon (review propensity varies
	// wildly across products, which also keeps the zero-review bin's
	// demand baseline comparable to its neighbors'), moderate elsewhere.
	switch site {
	case logs.Amazon:
		cfg.ReviewNoise = 0.95
	case logs.IMDb:
		cfg.ReviewNoise = 0.45
	default:
		cfg.ReviewNoise = 0.5
	}
	return cfg
}

// GenerateCatalog builds a deterministic catalog. It returns an error
// for an unknown site or non-positive N.
func GenerateCatalog(cfg CatalogConfig) (*Catalog, error) {
	if !cfg.Site.Valid() {
		return nil, fmt.Errorf("demand: unknown site %q", cfg.Site)
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("demand: need N > 0, got %d", cfg.N)
	}
	if cfg.DemandExp == 0 && cfg.ReviewExp == 0 {
		def := SiteDefaults(cfg.Site, cfg.N, cfg.Seed)
		def.N, def.Seed = cfg.N, cfg.Seed
		cfg = def
	}
	rng := dist.NewRNG(cfg.Seed ^ 0xca7a109)
	noise, err := dist.NewLogNormal(0, cfg.ReviewNoise)
	if err != nil {
		return nil, fmt.Errorf("demand: review noise: %w", err)
	}
	cat := &Catalog{Site: cfg.Site, Entities: make([]CatEntity, cfg.N)}
	cutoff := cfg.TailCutoffFrac * float64(cfg.N)
	if cfg.TailCutoffRank > 0 {
		cutoff = float64(cfg.TailCutoffRank)
	}
	for i := 0; i < cfg.N; i++ {
		rank := float64(i + 1)
		d := cfg.BaseDemand * math.Pow(rank, -cfg.DemandExp)
		if cutoff > 0 {
			d /= 1 + math.Pow(rank/cutoff, cfg.CutoffPower)
		}
		meanReviews := float64(cfg.MaxReviews) * math.Pow(rank, -cfg.ReviewExp) * noise.Sample(rng)
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
