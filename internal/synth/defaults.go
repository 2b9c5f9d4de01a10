package synth

import (
	"fmt"

	"repro/internal/entity"
)

// Default shape parameters, calibrated so the coverage and connectivity
// curves reproduce the paper's qualitative shapes at laptop scale (the
// measured comparison is the claim report `analyze -out` writes to
// shape_checks.txt):
//
//   - identifying attributes are near-universally available on listings
//     (top-10 sites reach ~90% 1-coverage, top-100 ~100%),
//   - homepages are scarce on aggregators and often only on self-sites
//     (the 1-coverage curve is far flatter; reaching ~95% takes
//     thousands of sites),
//   - reviews skew to head entities on head sites.
const (
	defaultSizeExponent     = 0.85
	defaultHeadFraction     = 0.75
	defaultPopBias          = 0.60
	defaultKeyAvail         = 0.95
	defaultAggHomepageAvail = 0.35
	defaultDirHomepageAvail = 0.30
	defaultAggregators      = 10
	defaultMaxReviews       = 500
	defaultReviewExponent   = 0.45
	defaultReviewSiteBias   = 0.90
)

// domainShape carries the per-domain variation of the two dominant
// shape parameters, chosen so Table 2 shows the paper's spread of
// multiplicities and component counts: Libraries/Hotels are dense with
// few components, Home & Garden is the sparsest with thousands of tiny
// components, Books sit in between with a thinner head.
var domainShapes = map[entity.Domain]struct {
	headFraction float64
	popBias      float64
}{
	entity.Books:       {0.45, 0.70},
	entity.Restaurants: {0.75, 0.55},
	entity.Automotive:  {0.62, 0.65},
	entity.Banks:       {0.80, 0.62},
	entity.Libraries:   {0.85, 0.50},
	entity.Schools:     {0.78, 0.60},
	entity.Hotels:      {0.85, 0.55},
	entity.Retail:      {0.60, 0.68},
	entity.HomeGarden:  {0.55, 0.78},
}

// withDefaults fills zero-valued shape parameters, applying the
// per-domain head-fraction and popularity-bias variations.
func withDefaults(cfg Config) Config {
	shape, hasShape := domainShapes[cfg.Domain]
	if cfg.SizeExponent == 0 {
		cfg.SizeExponent = defaultSizeExponent
	}
	if cfg.HeadFraction == 0 {
		cfg.HeadFraction = defaultHeadFraction
		if hasShape {
			cfg.HeadFraction = shape.headFraction
		}
	}
	if cfg.PopBias == 0 {
		cfg.PopBias = defaultPopBias
		if hasShape {
			cfg.PopBias = shape.popBias
		}
	}
	if cfg.KeyAvail == 0 {
		cfg.KeyAvail = defaultKeyAvail
	}
	if cfg.AggHomepageAvail == 0 {
		cfg.AggHomepageAvail = defaultAggHomepageAvail
	}
	if cfg.DirHomepageAvail == 0 {
		cfg.DirHomepageAvail = defaultDirHomepageAvail
	}
	if cfg.Aggregators == 0 {
		cfg.Aggregators = defaultAggregators
	}
	if cfg.MaxReviews == 0 {
		cfg.MaxReviews = defaultMaxReviews
	}
	if cfg.ReviewExponent == 0 {
		cfg.ReviewExponent = defaultReviewExponent
	}
	if cfg.ReviewSiteBias == 0 {
		cfg.ReviewSiteBias = defaultReviewSiteBias
	}
	return cfg
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
