// Package synth generates the synthetic web the reproduction crawls: a
// population of websites covering the entities of one domain, with the
// empirical regularities the paper reports built in —
//
//   - power-law site sizes: a handful of head aggregators covering most
//     of the domain, a long tail of small directories and blogs;
//   - popularity-biased coverage: head entities appear on many sites,
//     tail entities on few;
//   - per-attribute availability: identifying attributes (phone/ISBN)
//     are shown on most listings, homepages on far fewer, so the
//     homepage spread is much wider (§3.4);
//   - self-sites: a business's own website is often the only host
//     linking its homepage, creating the deep homepage tail;
//   - reviews concentrated on head sites for head entities, with tail
//     entities reviewed on one or two small sites if at all (§3.4, Fig 4).
//
// The model fixes every page-level decision (which listing shows which
// attribute, how many review pages a site has for an entity) at
// generation time. The HTML renderer and the direct index builder both
// consume those decisions, so extracting the rendered web reproduces
// the direct index exactly — tests assert this equivalence.
//
// The package also owns the crawl round trip: WriteWARC archives the
// rendered web, and ExtractWARC mines an archive back into indexes by
// the same page fold, attribute universes and review universe as
// ExtractIndexes. ReviewClassifier is the one training recipe for the
// §3.2 review detector.
package synth

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/warc"
)

// SiteClass labels the role a site plays in the synthetic web.
type SiteClass int

// Site classes.
const (
	// Aggregator is a head site (yelp.com-like) with broad coverage.
	Aggregator SiteClass = iota
	// Directory is a mid/tail listing site (chamber of commerce, local
	// directory, critic blog).
	Directory
	// SelfSite is an entity's own website.
	SelfSite
)

// String names the class.
func (c SiteClass) String() string {
	switch c {
	case Aggregator:
		return "aggregator"
	case Directory:
		return "directory"
	case SelfSite:
		return "self"
	default:
		return "unknown"
	}
}

// Listing is one (site, entity) coverage decision.
type Listing struct {
	Entity      int  // entity ID
	HasKey      bool // identifying attribute shown (phone, or ISBN for books)
	HasHomepage bool // page links the entity's homepage
	Reviews     int  // review pages this site hosts for this entity
}

// Site is one website and everything it says about the domain.
type Site struct {
	Host     string
	Class    SiteClass
	Listings []Listing
}

// Config parameterizes web generation. Zero-valued shape fields take the
// calibrated defaults (see defaults.go); Domain, Entities,
// DirectoryHosts and Seed must be set.
type Config struct {
	Domain         entity.Domain
	Entities       int    // entity database size
	DirectoryHosts int    // aggregator + directory host count
	Seed           uint64 // master seed; everything derives from it

	// SizeExponent is the power-law decay of site size with site rank
	// (beta: size ∝ rank^-beta).
	SizeExponent float64
	// HeadFraction is the fraction of the entity DB covered by the
	// rank-1 site.
	HeadFraction float64
	// PopBias is the popularity bias of site coverage (gamma: entity
	// selection weight ∝ popRank^-gamma). Zero bias means uniform.
	PopBias float64
	// KeyAvail is the probability a covered listing shows the
	// identifying attribute.
	KeyAvail float64
	// AggHomepageAvail / DirHomepageAvail are the probabilities that an
	// aggregator / directory listing links the entity homepage.
	AggHomepageAvail float64
	DirHomepageAvail float64
	// Aggregators is how many top-ranked sites count as aggregators.
	Aggregators int

	// MaxReviews is the expected review-page count for the rank-1
	// entity (restaurants only; reviews decay as popRank^-ReviewExponent).
	MaxReviews     int
	ReviewExponent float64
	// ReviewSiteBias controls popularity affinity in review placement:
	// a head entity's reviews gravitate to head sites (weight
	// ∝ siteRank^-ReviewSiteBias), a tail entity's to the tail sites
	// that cover it (weight ∝ siteRank^+ReviewSiteBias·affinity). This
	// is the mechanism behind Fig 4: popular restaurants are reviewed on
	// yelp-like aggregators while obscure ones are reviewed only on
	// local blogs, so review coverage needs thousands of sites.
	ReviewSiteBias float64
}

// Web is the generated synthetic web for one domain.
type Web struct {
	Config Config
	DB     *entity.DB
	Sites  []Site
}

// Generate builds the synthetic web. It returns an error for an invalid
// domain or non-positive sizes.
func Generate(cfg Config) (*Web, error) {
	cfg = withDefaults(cfg)
	if !cfg.Domain.Valid() {
		return nil, fmt.Errorf("synth: invalid domain %q", cfg.Domain)
	}
	if cfg.Entities <= 0 || cfg.DirectoryHosts <= 0 {
		return nil, fmt.Errorf("synth: need positive Entities and DirectoryHosts, got %d and %d",
			cfg.Entities, cfg.DirectoryHosts)
	}
	db, err := entity.Generate(entity.Config{Domain: cfg.Domain, N: cfg.Entities, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("synth: generate entities: %w", err)
	}

	rng := dist.NewRNG(cfg.Seed ^ 0x5eed0fbeb)
	w := &Web{Config: cfg, DB: db}

	coverRNG := rng.Split()
	attrRNG := rng.Split()
	reviewRNG := rng.Split()

	w.generateDirectorySites(coverRNG, attrRNG)
	if cfg.Domain != entity.Books {
		w.generateSelfSites()
	}
	if cfg.Domain == entity.Restaurants {
		w.distributeReviews(reviewRNG)
	}
	return w, nil
}

// siteSize returns the intended entity count for the site at 1-based
// rank r.
func siteSize(cfg Config, r int) int {
	s := cfg.HeadFraction * float64(cfg.Entities) * math.Pow(float64(r), -cfg.SizeExponent)
	n := int(math.Round(s))
	if n < 1 {
		n = 1
	}
	if n > cfg.Entities {
		n = cfg.Entities
	}
	return n
}

// generateDirectorySites creates the aggregator+directory population.
// Large sites use a Bernoulli inclusion scan (O(N) per site); small
// sites use alias rejection sampling (O(size)).
func (w *Web) generateDirectorySites(coverRNG, attrRNG *dist.RNG) {
	cfg := w.Config
	n := cfg.Entities
	weights := make([]float64, n)
	var wsum float64
	for i := 0; i < n; i++ {
		weights[i] = math.Pow(float64(i+1), -cfg.PopBias)
		wsum += weights[i]
	}
	alias, err := dist.NewAlias(weights)
	if err != nil {
		// Weights are strictly positive by construction.
		panic("synth: internal alias construction failed: " + err.Error())
	}

	// One members buffer and one set of dedup marks serve every site:
	// each site's members are copied into its listings before the next
	// site draws.
	var members []int
	var seen dist.Marks
	w.Sites = make([]Site, 0, cfg.DirectoryHosts)
	bernoulliThreshold := n / 10
	for r := 1; r <= cfg.DirectoryHosts; r++ {
		size := siteSize(cfg, r)
		if size >= bernoulliThreshold {
			members = members[:0]
			scale := float64(size) / wsum
			for i := 0; i < n; i++ {
				p := weights[i] * scale
				if p >= 1 || coverRNG.Float64() < p {
					members = append(members, i)
				}
			}
		} else {
			members = alias.SampleDistinct(coverRNG, size, &seen, members)
		}
		if len(members) == 0 {
			members = append(members, alias.Sample(coverRNG))
		}
		class := Directory
		hpAvail := cfg.DirHomepageAvail
		if r <= cfg.Aggregators {
			class = Aggregator
			hpAvail = cfg.AggHomepageAvail
		}
		site := Site{
			Host:     hostName(cfg.Domain, class, r),
			Class:    class,
			Listings: make([]Listing, 0, len(members)),
		}
		for _, e := range members {
			l := Listing{
				Entity: e,
				HasKey: attrRNG.Float64() < cfg.KeyAvail,
			}
			if w.DB.Entities[e].Homepage != "" && attrRNG.Float64() < hpAvail {
				l.HasHomepage = true
			}
			site.Listings = append(site.Listings, l)
		}
		w.Sites = append(w.Sites, site)
	}
}

// generateSelfSites adds one single-entity site per entity that has a
// homepage: the business's own website, hosting its phone and linking
// itself. All self-site listings share one column; each site holds a
// one-element view of it with no spare capacity.
func (w *Web) generateSelfSites() {
	self := 0
	for i := range w.DB.Entities {
		if w.DB.Entities[i].Homepage != "" {
			self++
		}
	}
	col := make([]Listing, 0, self)
	w.Sites = slices.Grow(w.Sites, self)
	for i := range w.DB.Entities {
		e := &w.DB.Entities[i]
		if e.Homepage == "" {
			continue
		}
		j := len(col)
		col = append(col, Listing{Entity: e.ID, HasKey: true, HasHomepage: true})
		w.Sites = append(w.Sites, Site{
			Host:     warc.HostOf(e.Homepage),
			Class:    SelfSite,
			Listings: col[j : j+1 : j+1],
		})
	}
}

// distributeReviews assigns per-(site, entity) review-page counts.
// Entity e's total review volume decays with its popularity rank;
// placement is biased toward head sites among the sites that list e.
func (w *Web) distributeReviews(rng *dist.RNG) {
	cfg := w.Config
	// Index: entity -> (site index, listing index) pairs for non-self
	// sites that list it.
	type ref struct{ site, listing int }
	byEntity := make([][]ref, cfg.Entities)
	for si := range w.Sites {
		if w.Sites[si].Class == SelfSite {
			continue
		}
		for li := range w.Sites[si].Listings {
			e := w.Sites[si].Listings[li].Entity
			byEntity[e] = append(byEntity[e], ref{si, li})
		}
	}
	noise, err := dist.NewLogNormal(0, 0.6)
	if err != nil {
		panic("synth: lognormal construction failed: " + err.Error())
	}
	for e := 0; e < cfg.Entities; e++ {
		refs := byEntity[e]
		if len(refs) == 0 {
			continue
		}
		mean := float64(cfg.MaxReviews) * math.Pow(float64(e+1), -cfg.ReviewExponent) * noise.Sample(rng)
		total := dist.Poisson(rng, mean)
		if total == 0 {
			continue
		}
		// Placement weights with popularity affinity: for head entities
		// (affinity near -1) weights favor head sites; for tail entities
		// (affinity near +1) they favor the tail sites covering them.
		affinity := 2*float64(e)/float64(cfg.Entities) - 1
		exponent := cfg.ReviewSiteBias * affinity
		pw := make([]float64, len(refs))
		for i, r := range refs {
			pw[i] = math.Pow(float64(r.site+1), exponent)
		}
		placer, err := dist.NewAlias(pw)
		if err != nil {
			continue
		}
		for k := 0; k < total; k++ {
			r := refs[placer.Sample(rng)]
			l := &w.Sites[r.site].Listings[r.listing]
			l.Reviews++
			// A review page always carries the phone so the extraction
			// pipeline can attribute it (§3.2); keep the model coherent.
			l.HasKey = true
		}
	}
}

// hostName builds a deterministic host for a directory-population site:
// top<rank>-<domain>.example.com for aggregators, and
// dir<rank>.<domain>-sites.example.com with rank zero-padded to six
// digits for directories.
func hostName(d entity.Domain, c SiteClass, rank int) string {
	b := make([]byte, 0, 64)
	if c == Aggregator {
		b = append(b, "top"...)
		b = strconv.AppendInt(b, int64(rank), 10)
		b = append(b, '-')
		b = append(b, d...)
		return string(append(b, ".example.com"...))
	}
	b = append(b, "dir"...)
	for p := 100000; p > rank && p > 1; p /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, '.')
	b = append(b, d...)
	return string(append(b, "-sites.example.com"...))
}

// TotalListings returns the number of (site, entity) coverage pairs.
func (w *Web) TotalListings() int {
	n := 0
	for i := range w.Sites {
		n += len(w.Sites[i].Listings)
	}
	return n
}

// TotalReviewPages returns the number of review pages across all sites.
func (w *Web) TotalReviewPages() int {
	n := 0
	for i := range w.Sites {
		for _, l := range w.Sites[i].Listings {
			n += l.Reviews
		}
	}
	return n
}
