package core

import (
	"fmt"

	"repro/internal/coverage"
	"repro/internal/demand"
	"repro/internal/entity"
	"repro/internal/graph"
	"repro/internal/logs"
	"repro/internal/stats"
	"repro/internal/valueadd"
)

// KCoverageMax is the paper's k range (curves for k = 1..10).
const KCoverageMax = 10

// SpreadResult is one panel of Figures 1–4a: the k-coverage curves of
// one (domain, attribute).
type SpreadResult struct {
	Domain entity.Domain
	Attr   entity.Attr
	Curves []coverage.Curve
	Sites  int // number of sites in the index
}

// Spread computes the k-coverage curves for one (domain, attribute) —
// the building block of Figures 1 (phones), 2 (homepages), 3 (ISBN) and
// 4a (reviews).
func (s *Study) Spread(d entity.Domain, a entity.Attr) (*SpreadResult, error) {
	idx, err := s.Index(d, a)
	if err != nil {
		return nil, err
	}
	curves, err := coverage.KCoverage(idx, KCoverageMax, coverage.LogSpacedT(len(idx.Sites)))
	if err != nil {
		return nil, fmt.Errorf("core: k-coverage for %s/%s: %w", d, a, err)
	}
	return &SpreadResult{Domain: d, Attr: a, Curves: curves, Sites: len(idx.Sites)}, nil
}

// Fig1 computes the phone-attribute spread for the 8 local business
// domains (Figure 1 a–h).
func (s *Study) Fig1() ([]*SpreadResult, error) { return s.localSpread(entity.AttrPhone) }

// Fig2 computes the homepage-attribute spread for the 8 local business
// domains (Figure 2 a–h).
func (s *Study) Fig2() ([]*SpreadResult, error) { return s.localSpread(entity.AttrHomepage) }

func (s *Study) localSpread(a entity.Attr) ([]*SpreadResult, error) {
	out := make([]*SpreadResult, 0, len(entity.LocalBusinessDomains))
	for _, d := range entity.LocalBusinessDomains {
		r, err := s.Spread(d, a)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig3 computes the book-ISBN spread (Figure 3).
func (s *Study) Fig3() (*SpreadResult, error) {
	return s.Spread(entity.Books, entity.AttrISBN)
}

// Fig4Result bundles both panels of Figure 4: the per-entity k-coverage
// curves (a) and the aggregate review-page coverage (b).
type Fig4Result struct {
	A *SpreadResult
	B coverage.AggregateCurve
}

// Fig4 computes both Figure 4 panels.
func (s *Study) Fig4() (*Fig4Result, error) {
	a, err := s.Spread(entity.Restaurants, entity.AttrReview)
	if err != nil {
		return nil, err
	}
	idx, err := s.Index(entity.Restaurants, entity.AttrReview)
	if err != nil {
		return nil, err
	}
	b, err := coverage.AggregateCoverage(idx, coverage.LogSpacedT(len(idx.Sites)))
	if err != nil {
		return nil, fmt.Errorf("core: aggregate review coverage: %w", err)
	}
	return &Fig4Result{A: a, B: b}, nil
}

// Fig5Result compares the size ordering against greedy set cover for
// restaurant homepages (Figure 5).
type Fig5Result struct {
	BySize coverage.Curve
	Greedy coverage.Curve
}

// Fig5 runs the greedy set-cover comparison on restaurant homepages.
func (s *Study) Fig5() (*Fig5Result, error) {
	idx, err := s.Index(entity.Restaurants, entity.AttrHomepage)
	if err != nil {
		return nil, err
	}
	tPoints := coverage.LogSpacedT(len(idx.Sites))
	sizeCurves, err := coverage.KCoverage(idx, 1, tPoints)
	if err != nil {
		return nil, fmt.Errorf("core: size-order coverage: %w", err)
	}
	_, covered, err := coverage.GreedySetCover(idx, 0)
	if err != nil {
		return nil, fmt.Errorf("core: greedy set cover: %w", err)
	}
	return &Fig5Result{
		BySize: sizeCurves[0],
		Greedy: coverage.CoverageOfGreedy(idx, covered, tPoints),
	}, nil
}

// Fig6Result holds one site's demand distribution under one source.
type Fig6Result struct {
	Site     logs.Site
	Source   logs.Source
	CDF      []demand.CDFPoint
	PDF      []demand.PDFPoint
	Top20    float64 // demand share of the top 20% of inventory
	GiniSkew float64 // Gini coefficient of the demand vector
	// ZipfS is the fitted rank-frequency exponent of the PDF's head
	// (the slope of the Figure 6(b/d) log-log plots); 0 when the fit is
	// degenerate.
	ZipfS float64
}

// Fig6 computes the cumulative and rank demand distributions for all
// three sites under both traffic sources (Figure 6 a–d).
func (s *Study) Fig6() ([]*Fig6Result, error) {
	var out []*Fig6Result
	for _, site := range logs.Sites {
		ests, err := s.Demand(site)
		if err != nil {
			return nil, err
		}
		for _, src := range []logs.Source{logs.Search, logs.Browse} {
			vec := demand.UniqueVector(ests[src])
			cdf, err := demand.DemandCDF(vec, 100)
			if err != nil {
				return nil, fmt.Errorf("core: demand cdf %s/%s: %w", site, src, err)
			}
			pdf, err := demand.DemandPDF(vec)
			if err != nil {
				return nil, fmt.Errorf("core: demand pdf %s/%s: %w", site, src, err)
			}
			r := &Fig6Result{
				Site:     site,
				Source:   src,
				CDF:      cdf,
				PDF:      pdf,
				Top20:    demand.TopShare(vec, 0.2),
				GiniSkew: stats.Gini(vec),
			}
			if s, err := stats.ZipfExponentFromRanks(vec, 1000); err == nil {
				r.ZipfS = s
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// Fig78Result holds the per-review-bin aggregates for one site and
// source: Figure 7 plots MeanDemand (z-scored), Figure 8 plots RelVA.
type Fig78Result struct {
	Site   logs.Site
	Source logs.Source
	Bins   []valueadd.BinPoint
}

// Fig7 computes normalized demand vs existing review count.
func (s *Study) Fig7() ([]*Fig78Result, error) {
	return s.fig78(true)
}

// Fig8 computes the relative value-add VA(n)/VA(0) curves.
func (s *Study) Fig8() ([]*Fig78Result, error) {
	return s.fig78(false)
}

func (s *Study) fig78(normalized bool) ([]*Fig78Result, error) {
	var out []*Fig78Result
	for _, site := range logs.Sites {
		cat, err := s.Catalog(site)
		if err != nil {
			return nil, err
		}
		ests, err := s.Demand(site)
		if err != nil {
			return nil, err
		}
		allReviews := make([]int, len(cat.Entities))
		for i, e := range cat.Entities {
			allReviews[i] = e.Reviews
		}
		for _, src := range []logs.Source{logs.Search, logs.Browse} {
			full := demand.UniqueVector(ests[src])
			// The paper samples entity URLs from the click logs (§4.1),
			// so its inventory is entities with observed traffic;
			// condition the analysis the same way.
			var reviews []int
			var vec []float64
			for i, v := range full {
				if v > 0 {
					reviews = append(reviews, allReviews[i])
					vec = append(vec, v)
				}
			}
			var bins []valueadd.BinPoint
			if normalized {
				bins, err = valueadd.NormalizedDemandByBin(reviews, vec)
			} else {
				bins, err = valueadd.Analyze(reviews, vec, valueadd.InverseLinear{})
			}
			if err != nil {
				return nil, fmt.Errorf("core: value-add %s/%s: %w", site, src, err)
			}
			out = append(out, &Fig78Result{Site: site, Source: src, Bins: bins})
		}
	}
	return out, nil
}

// Table1Row is one row of Table 1: a domain and its studied attributes.
type Table1Row struct {
	Domain entity.Domain
	Attrs  []entity.Attr
}

// Table1 lists the studied domains and attributes.
func (s *Study) Table1() []Table1Row {
	out := make([]Table1Row, 0, len(entity.AllDomains))
	for _, d := range entity.AllDomains {
		out = append(out, Table1Row{Domain: d, Attrs: entity.AttrsFor(d)})
	}
	return out
}

// Table2Row is one row of Table 2: the entity–site graph metrics of one
// (domain, attribute).
type Table2Row struct {
	Domain entity.Domain
	Attr   entity.Attr
	graph.Metrics
}

// table2Pairs lists Table 2's (domain, attribute) rows in paper order.
func table2Pairs() []graphKey {
	pairs := []graphKey{{entity.Books, entity.AttrISBN}}
	for _, a := range []entity.Attr{entity.AttrPhone, entity.AttrHomepage} {
		for _, d := range entity.LocalBusinessDomains {
			pairs = append(pairs, graphKey{d, a})
		}
	}
	return pairs
}

// Table2 computes the graph metrics for every (domain, attribute) pair.
func (s *Study) Table2() ([]Table2Row, error) {
	var out []Table2Row
	for _, p := range table2Pairs() {
		g, err := s.Graph(p.d, p.a)
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Row{Domain: p.d, Attr: p.a, Metrics: g.ComputeMetrics()})
	}
	return out, nil
}

// Graph returns (building and caching if needed) the bipartite
// entity–site graph for one (domain, attr). Graphs are immutable after
// construction — every analysis allocates its own scratch — so Table 2
// and Figure 9 share one cached instance per pair even when they run
// concurrently.
func (s *Study) Graph(d entity.Domain, a entity.Attr) (*graph.Bipartite, error) {
	return s.graphs.Get(graphKey{d, a}, func() (*graph.Bipartite, error) {
		s.builds.graphs.Add(1)
		defer timeBuild(obsBuildGraph, spanBuildGraph)()
		idx, err := s.Index(d, a)
		if err != nil {
			return nil, err
		}
		g, err := graph.FromIndex(idx)
		if err != nil {
			return nil, fmt.Errorf("core: graph for %s/%s: %w", d, a, err)
		}
		return g, nil
	})
}

// Fig9Result is the robustness curve of one (domain, attribute):
// Curve[k] is the fraction of connected entities in the largest
// component after removing the top k sites.
type Fig9Result struct {
	Domain entity.Domain
	Attr   entity.Attr
	Curve  []float64
}

// Fig9MaxK is the removal depth of Figure 9 (top 0..10 sites).
const Fig9MaxK = 10

// Fig9 computes the robustness curves: panel (a) phones for the 8 local
// domains, panel (b) homepages, panel (c) book ISBN.
func (s *Study) Fig9() ([]*Fig9Result, error) {
	var out []*Fig9Result
	for _, a := range []entity.Attr{entity.AttrPhone, entity.AttrHomepage} {
		for _, d := range entity.LocalBusinessDomains {
			g, err := s.Graph(d, a)
			if err != nil {
				return nil, err
			}
			out = append(out, &Fig9Result{Domain: d, Attr: a, Curve: g.RobustnessCurve(Fig9MaxK)})
		}
	}
	g, err := s.Graph(entity.Books, entity.AttrISBN)
	if err != nil {
		return nil, err
	}
	out = append(out, &Fig9Result{Domain: entity.Books, Attr: entity.AttrISBN, Curve: g.RobustnessCurve(Fig9MaxK)})
	return out, nil
}
