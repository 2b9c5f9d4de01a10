package synth

import (
	"fmt"

	"repro/internal/entity"
)

// model is the generative model's calibration for one domain. It is a
// constant of the reproduction, not an input: a seed draws one possible
// world of this fixed model.
type model struct {
	// sizeExponent is the power-law decay of site size with site rank
	// (beta: size ∝ rank^-beta).
	sizeExponent float64
	// headFraction is the fraction of the entity DB covered by the
	// rank-1 site.
	headFraction float64
	// popBias is the popularity bias of site coverage (gamma: entity
	// selection weight ∝ popRank^-gamma).
	popBias float64
	// keyAvail is the probability a covered listing shows the
	// identifying attribute.
	keyAvail float64
	// aggHomepageAvail / dirHomepageAvail are the probabilities that an
	// aggregator / directory listing links the entity homepage.
	aggHomepageAvail float64
	dirHomepageAvail float64
	// aggregators is how many top-ranked sites count as aggregators.
	aggregators int
	// maxReviews is the expected review-page count for the rank-1
	// entity (restaurants only; reviews decay as
	// popRank^-reviewExponent).
	maxReviews     int
	reviewExponent float64
	// reviewSiteBias controls popularity affinity in review placement:
	// a head entity's reviews gravitate to head sites (weight
	// ∝ siteRank^-reviewSiteBias), a tail entity's to the tail sites
	// that cover it (weight ∝ siteRank^+reviewSiteBias·affinity). This
	// is the mechanism behind Fig 4: popular restaurants are reviewed on
	// yelp-like aggregators while obscure ones are reviewed only on
	// local blogs, so review coverage needs thousands of sites.
	reviewSiteBias float64
}

// models is the calibration table, one row per domain, chosen so the
// coverage and connectivity curves reproduce the paper's qualitative
// shapes at laptop scale (the measured comparison is the claim report
// `analyze -out` writes to shape_checks.txt):
//
//   - identifying attributes are near-universally available on listings
//     (top-10 sites reach ~90% 1-coverage, top-100 ~100%),
//   - homepages are scarce on aggregators and often only on self-sites
//     (the 1-coverage curve is far flatter; reaching ~95% takes
//     thousands of sites),
//   - reviews skew to head entities on head sites.
//
// Head fraction and popularity bias vary by domain so Table 2 shows the
// paper's spread of multiplicities and component counts:
// Libraries/Hotels are dense with few components, Home & Garden is the
// sparsest with thousands of tiny components, Books sit in between with
// a thinner head.
var models = map[entity.Domain]model{
	//                   size  head  pop   key   aggHP dirHP aggs maxRev revExp siteBias
	entity.Books:       {0.85, 0.45, 0.70, 0.95, 0.35, 0.30, 10, 500, 0.45, 0.90},
	entity.Restaurants: {0.85, 0.75, 0.55, 0.95, 0.35, 0.30, 10, 500, 0.45, 0.90},
	entity.Automotive:  {0.85, 0.62, 0.65, 0.95, 0.35, 0.30, 10, 500, 0.45, 0.90},
	entity.Banks:       {0.85, 0.80, 0.62, 0.95, 0.35, 0.30, 10, 500, 0.45, 0.90},
	entity.Libraries:   {0.85, 0.85, 0.50, 0.95, 0.35, 0.30, 10, 500, 0.45, 0.90},
	entity.Schools:     {0.85, 0.78, 0.60, 0.95, 0.35, 0.30, 10, 500, 0.45, 0.90},
	entity.Hotels:      {0.85, 0.85, 0.55, 0.95, 0.35, 0.30, 10, 500, 0.45, 0.90},
	entity.Retail:      {0.85, 0.60, 0.68, 0.95, 0.35, 0.30, 10, 500, 0.45, 0.90},
	entity.HomeGarden:  {0.85, 0.55, 0.78, 0.95, 0.35, 0.30, 10, 500, 0.45, 0.90},
}

// Scale bundles the experiment sizes used across the reproduction.
type Scale struct {
	Entities       int
	DirectoryHosts int
}

// Scales for the standard runs. Small keeps unit tests, the serving
// layer's default and the benchmark fast; Default is the paper-facing
// calibration (`analyze -scale default`); Large stresses the pipeline.
var (
	ScaleSmall   = Scale{Entities: 2000, DirectoryHosts: 3000}
	ScaleDefault = Scale{Entities: 20000, DirectoryHosts: 30000}
	ScaleLarge   = Scale{Entities: 60000, DirectoryHosts: 90000}
)

// scales is the one table of public scale names, shared by cmd/analyze
// and the serving layer through ParseScale.
var scales = map[string]Scale{"small": ScaleSmall, "default": ScaleDefault, "large": ScaleLarge}

// ParseScale resolves a public scale name.
func ParseScale(name string) (Scale, error) {
	sc, ok := scales[name]
	if !ok {
		return Scale{}, fmt.Errorf("unknown scale %q (small, default, large)", name)
	}
	return sc, nil
}
