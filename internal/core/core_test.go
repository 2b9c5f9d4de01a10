package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/entity"
	"repro/internal/logs"
)

// testConfig keeps unit tests fast; shape assertions at this scale are
// qualitative (orderings), with the paper-facing numbers produced at
// default scale by cmd/webrepro and recorded in EXPERIMENTS.md.
func testConfig() Config {
	return Config{
		Seed:            7,
		Entities:        1500,
		DirectoryHosts:  2500,
		CatalogN:        6000,
		EventsPerSource: 150000,
	}
}

func TestConfigDefaults(t *testing.T) {
	s := NewStudy(Config{})
	cfg := s.Config()
	if cfg.Entities == 0 || cfg.DirectoryHosts == 0 || cfg.CatalogN == 0 || cfg.EventsPerSource == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestWebCachedAndDeterministic(t *testing.T) {
	s := NewStudy(testConfig())
	a, err := s.Web(entity.Banks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Web(entity.Banks)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("web not cached")
	}
	s2 := NewStudy(testConfig())
	c, err := s2.Web(entity.Banks)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sites) != len(a.Sites) {
		t.Error("same seed produced different webs")
	}
	// Different domains differ under the same master seed.
	d, err := s.Web(entity.Hotels)
	if err != nil {
		t.Fatal(err)
	}
	if d.Sites[0].Listings[0] == a.Sites[0].Listings[0] &&
		d.Sites[1].Listings[0] == a.Sites[1].Listings[0] {
		t.Error("domain salt not decorrelating webs")
	}
}

func TestIndexUnknownAttr(t *testing.T) {
	s := NewStudy(testConfig())
	if _, err := s.Index(entity.Banks, entity.AttrReview); err == nil {
		t.Error("banks/review should fail")
	}
	if _, err := s.Index(entity.Books, entity.AttrPhone); err == nil {
		t.Error("books/phone should fail")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStudy(testConfig())
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := entity.LocalBusinessDomains[i%4]
			if _, err := s.Index(d, entity.AttrPhone); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSpreadShapes(t *testing.T) {
	s := NewStudy(testConfig())
	phone, err := s.Spread(entity.Restaurants, entity.AttrPhone)
	if err != nil {
		t.Fatal(err)
	}
	home, err := s.Spread(entity.Restaurants, entity.AttrHomepage)
	if err != nil {
		t.Fatal(err)
	}
	// Headline shape: the homepage attribute is far more spread out than
	// the phone attribute — at t=10 phones cover much more.
	pAt10 := phone.Curves[0].Coverage[9]
	hAt10 := home.Curves[0].Coverage[9]
	if pAt10 < 0.7 {
		t.Errorf("phone 1-coverage at t=10 = %v, want high", pAt10)
	}
	if hAt10 >= pAt10-0.15 {
		t.Errorf("homepage (%v) should be much more spread than phone (%v)", hAt10, pAt10)
	}
	// k-curves are ordered.
	for ti := range phone.Curves[0].Coverage {
		for k := 1; k < KCoverageMax; k++ {
			if phone.Curves[k].Coverage[ti] > phone.Curves[k-1].Coverage[ti]+1e-12 {
				t.Fatalf("k-coverage ordering broken at k=%d t=%d", k+1, ti)
			}
		}
	}
	if len(phone.Curves) != KCoverageMax {
		t.Errorf("expected %d curves", KCoverageMax)
	}
}

func TestFig1Fig2AllDomains(t *testing.T) {
	s := NewStudy(testConfig())
	f1, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != 8 || len(f2) != 8 {
		t.Fatalf("fig1/fig2 panels: %d, %d", len(f1), len(f2))
	}
	for i, r := range f1 {
		if r.Attr != entity.AttrPhone || r.Domain != entity.LocalBusinessDomains[i] {
			t.Errorf("fig1 panel %d: %s/%s", i, r.Domain, r.Attr)
		}
	}
}

func TestFig3(t *testing.T) {
	s := NewStudy(testConfig())
	r, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if r.Domain != entity.Books || r.Attr != entity.AttrISBN {
		t.Errorf("fig3 = %s/%s", r.Domain, r.Attr)
	}
	final := r.Curves[0].Coverage[len(r.Curves[0].Coverage)-1]
	if final < 0.95 {
		t.Errorf("book 1-coverage should approach 1, got %v", final)
	}
}

func TestFig4(t *testing.T) {
	s := NewStudy(testConfig())
	a, err := s.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	// Entity coverage saturates to 1 on its universe.
	last := a.Curves[0].Coverage[len(a.Curves[0].Coverage)-1]
	if last < 0.999 {
		t.Errorf("review 1-coverage should reach ~1 on reviewed universe, got %v", last)
	}
	if b.Coverage[len(b.Coverage)-1] < 0.999 {
		t.Errorf("aggregate coverage should reach 1, got %v", b.Coverage[len(b.Coverage)-1])
	}
	// Page-mass coverage lags entity coverage in the mid-range (§3.4).
	mid := len(a.Curves[0].T) / 2
	if b.Coverage[mid] > a.Curves[0].Coverage[mid]+0.05 {
		t.Errorf("aggregate coverage %v should not lead entity coverage %v",
			b.Coverage[mid], a.Curves[0].Coverage[mid])
	}
}

func TestFig5GreedyDominatesButModestly(t *testing.T) {
	s := NewStudy(testConfig())
	r, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BySize.T) != len(r.Greedy.T) {
		t.Fatal("curves not aligned")
	}
	for i := range r.BySize.T {
		if r.Greedy.Coverage[i]+1e-9 < r.BySize.Coverage[i] {
			t.Errorf("t=%d: greedy %v below size order %v",
				r.BySize.T[i], r.Greedy.Coverage[i], r.BySize.Coverage[i])
		}
	}
	// §3.4.1: the improvement is insignificant — bounded gap.
	for i := range r.BySize.T {
		if gap := r.Greedy.Coverage[i] - r.BySize.Coverage[i]; gap > 0.25 {
			t.Errorf("t=%d: greedy gap %v implausibly large", r.BySize.T[i], gap)
		}
	}
}

func TestFig6ConcentrationOrdering(t *testing.T) {
	s := NewStudy(testConfig())
	rs, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 6 {
		t.Fatalf("fig6 results = %d, want 6", len(rs))
	}
	top20 := map[logs.Site]float64{}
	for _, r := range rs {
		if r.Source == logs.Search {
			top20[r.Site] = r.Top20
		}
		// CDF ends at (1, 1).
		last := r.CDF[len(r.CDF)-1]
		if last.DemandFrac < 0.999 || last.InventoryFrac < 0.999 {
			t.Errorf("%s/%s CDF end = %+v", r.Site, r.Source, last)
		}
	}
	if !(top20[logs.IMDb] > top20[logs.Amazon] && top20[logs.Amazon] > top20[logs.Yelp]) {
		t.Errorf("search top-20%% ordering: imdb=%v amazon=%v yelp=%v",
			top20[logs.IMDb], top20[logs.Amazon], top20[logs.Yelp])
	}
}

func TestFig7DemandIncreasesWithReviews(t *testing.T) {
	s := NewStudy(testConfig())
	rs, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if len(r.Bins) < 3 {
			t.Fatalf("%s/%s: only %d bins", r.Site, r.Source, len(r.Bins))
		}
		first, last := r.Bins[0], r.Bins[len(r.Bins)-1]
		if last.MeanDemand <= first.MeanDemand {
			t.Errorf("%s/%s: demand not increasing with reviews (%v -> %v)",
				r.Site, r.Source, first.MeanDemand, last.MeanDemand)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	s := NewStudy(testConfig())
	rs, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		switch r.Site {
		case logs.Yelp, logs.Amazon:
			// Decreasing overall: final bin well below VA(0).
			last := r.Bins[len(r.Bins)-1]
			if last.RelVA >= 1 {
				t.Errorf("%s/%s: head RelVA = %v, want < 1", r.Site, r.Source, last.RelVA)
			}
		case logs.IMDb:
			// Interior hump above 1.
			peak, peakIdx := 0.0, -1
			for i, p := range r.Bins {
				if p.RelVA > peak {
					peak, peakIdx = p.RelVA, i
				}
			}
			if peakIdx <= 0 || peakIdx >= len(r.Bins)-1 || peak <= 1 {
				t.Errorf("%s/%s: no interior hump (peak %v at %d of %d)",
					r.Site, r.Source, peak, peakIdx, len(r.Bins))
			}
		}
	}
}

func TestTable1(t *testing.T) {
	s := NewStudy(testConfig())
	rows := s.Table1()
	if len(rows) != 9 {
		t.Fatalf("table1 rows = %d", len(rows))
	}
	if rows[0].Domain != entity.Books || len(rows[0].Attrs) != 1 {
		t.Errorf("row 0 = %+v", rows[0])
	}
}

func TestTable2AndFig9(t *testing.T) {
	s := NewStudy(testConfig())
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 17 { // 1 ISBN + 8 phone + 8 homepage
		t.Fatalf("table2 rows = %d, want 17", len(rows))
	}
	for _, r := range rows {
		if r.FracLargest < 0.5 || r.FracLargest > 1 {
			t.Errorf("%s/%s largest frac = %v", r.Domain, r.Attr, r.FracLargest)
		}
		if r.Diameter < 2 || r.Diameter > 40 {
			t.Errorf("%s/%s diameter = %d", r.Domain, r.Attr, r.Diameter)
		}
		if r.Components < 1 {
			t.Errorf("%s/%s components = %d", r.Domain, r.Attr, r.Components)
		}
		if r.AvgSitesPerEntity < 1 {
			t.Errorf("%s/%s avg sites = %v", r.Domain, r.Attr, r.AvgSitesPerEntity)
		}
	}
	// Phone graphs are better connected than homepage graphs.
	frac := map[entity.Attr]float64{}
	n := map[entity.Attr]int{}
	for _, r := range rows {
		if r.Domain == entity.Books {
			continue
		}
		frac[r.Attr] += r.FracLargest
		n[r.Attr]++
	}
	if frac[entity.AttrPhone]/float64(n[entity.AttrPhone]) <=
		frac[entity.AttrHomepage]/float64(n[entity.AttrHomepage]) {
		t.Error("phone graphs should be better connected than homepage graphs")
	}

	f9, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(f9) != 17 {
		t.Fatalf("fig9 curves = %d, want 17", len(f9))
	}
	for _, r := range f9 {
		if len(r.Curve) != Fig9MaxK+1 {
			t.Fatalf("%s/%s curve length %d", r.Domain, r.Attr, len(r.Curve))
		}
		// Phone and ISBN graphs stay highly connected after top-10
		// removal (paper: > 99%; small-scale slack to 90%).
		if r.Attr != entity.AttrHomepage && r.Curve[Fig9MaxK] < 0.9 {
			t.Errorf("%s/%s robustness at k=10 = %v", r.Domain, r.Attr, r.Curve[Fig9MaxK])
		}
	}
}

func TestExtractionPipelineMatchesDirect(t *testing.T) {
	// The headline integration test: the full render→parse→extract
	// pipeline and the direct model path must yield identical coverage
	// analyses for a deterministic attribute.
	cfg := Config{Seed: 3, Entities: 400, DirectoryHosts: 600, CatalogN: 500, EventsPerSource: 1000}
	direct := NewStudy(cfg)
	cfgX := cfg
	cfgX.UseExtraction = true
	extracted := NewStudy(cfgX)

	dIdx, err := direct.Index(entity.Banks, entity.AttrPhone)
	if err != nil {
		t.Fatal(err)
	}
	xIdx, err := extracted.Index(entity.Banks, entity.AttrPhone)
	if err != nil {
		t.Fatal(err)
	}
	if dIdx.TotalPostings() != xIdx.TotalPostings() {
		t.Errorf("postings differ: direct %d vs extracted %d",
			dIdx.TotalPostings(), xIdx.TotalPostings())
	}
	dr, err := direct.Spread(entity.Banks, entity.AttrPhone)
	if err != nil {
		t.Fatal(err)
	}
	xr, err := extracted.Spread(entity.Banks, entity.AttrPhone)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range dr.Curves[0].Coverage {
		if dr.Curves[0].Coverage[ti] != xr.Curves[0].Coverage[ti] {
			t.Fatalf("coverage differs at t=%d: %v vs %v",
				dr.Curves[0].T[ti], dr.Curves[0].Coverage[ti], xr.Curves[0].Coverage[ti])
		}
	}
}

// TestGraphAnalysesMatchOraclesAcrossSeeds pins the fast graph paths to
// their oracles on real study graphs: every Table 2 diameter equals the
// all-sources BFS diameter, and every Figure 9 point equals a
// from-scratch component count with the top k sites removed. The
// brute-force diameters dominate its cost, so the seeds run in parallel.
func TestGraphAnalysesMatchOraclesAcrossSeeds(t *testing.T) {
	ranks := make([]int, Fig9MaxK)
	for k := range ranks {
		ranks[k] = k
	}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s := NewStudy(Config{Seed: seed, Entities: 500, DirectoryHosts: 750})
			rows, err := s.Table2()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				g, err := s.Graph(r.Domain, r.Attr)
				if err != nil {
					t.Fatal(err)
				}
				if brute := g.DiameterBrute(g.AllComponents()); r.Diameter != brute {
					t.Errorf("%s/%s: diameter %d, brute force %d", r.Domain, r.Attr, r.Diameter, brute)
				}
			}
			curves, err := s.Fig9()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range curves {
				g, err := s.Graph(f.Domain, f.Attr)
				if err != nil {
					t.Fatal(err)
				}
				for k, got := range f.Curve {
					if want := g.ComponentsExcluding(ranks[:k]).FracEntitiesInLargest(); got != want {
						t.Errorf("%s/%s: curve[%d] = %v, oracle %v", f.Domain, f.Attr, k, got, want)
					}
				}
			}
		})
	}
}
