package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/coverage"
	"repro/internal/entity"
	"repro/internal/logs"
	"repro/internal/obs"
)

// Experiment is one named unit of the reproduction: a paper table or
// figure. Run computes its result from a Study's cached artifacts;
// Needs lists the expensive artifact keys it reads, so RunAll can
// prewarm them in parallel before any experiment starts. Claims are the
// paper's statements about Run's result (see RunReport.Claims).
type Experiment struct {
	ID     string
	Title  string
	Needs  []Artifact
	Run    func(*Study) (any, error)
	Claims []Claim
}

// Artifact is one independently buildable cache key of a Study —
// the unit of build parallelism. Build populates the Study's memo
// caches (discarding the value); the singleflight layer deduplicates
// concurrent requests for the same key.
type Artifact struct {
	// Name identifies the cache key, e.g. "index/restaurants" or
	// "demand/yelp". RunAll deduplicates artifacts by name.
	Name  string
	Build func(*Study) error
}

// indexArtifact warms the per-attribute indexes of one domain (and the
// synthetic web underneath them).
func indexArtifact(d entity.Domain) Artifact {
	return Artifact{
		Name:  "index/" + string(d),
		Build: func(s *Study) error { _, err := s.Indexes(d); return err },
	}
}

// demandArtifact warms one site's catalog and simulated demand via the
// fully concurrent demand pipeline (generation → routing → aggregation,
// see demand.GeneratePipeline).
func demandArtifact(site logs.Site) Artifact {
	return Artifact{
		Name:  "demand/" + string(site),
		Build: func(s *Study) error { _, err := s.Demand(site); return err },
	}
}

func localIndexArtifacts() []Artifact {
	out := make([]Artifact, 0, len(entity.LocalBusinessDomains))
	for _, d := range entity.LocalBusinessDomains {
		out = append(out, indexArtifact(d))
	}
	return out
}

func allDemandArtifacts() []Artifact {
	out := make([]Artifact, 0, len(logs.Sites))
	for _, site := range logs.Sites {
		out = append(out, demandArtifact(site))
	}
	return out
}

// graphArtifacts warms the 17 Table 2 / Figure 9 entity–site graphs
// (and the indexes underneath), one pool task per (domain, attr) pair.
func graphArtifacts() []Artifact {
	var out []Artifact
	for _, p := range table2Pairs() {
		out = append(out, Artifact{
			Name:  "graph/" + string(p.d) + "/" + string(p.a),
			Build: func(s *Study) error { _, err := s.Graph(p.d, p.a); return err },
		})
	}
	return out
}

// registry lists the paper's artifacts in paper order. To add an
// experiment: append an entry with a unique ID, the artifacts it reads
// (for build parallelism), a Run closure over the Study API, and its
// Claims (measures and thresholds in claims.go); the report layer,
// cmd/analyze and TestClaimsAcrossSeeds pick it up by ID automatically.
var registry = []Experiment{
	{
		ID: "table1", Title: "Table 1: studied domains and attributes",
		Run: func(s *Study) (any, error) { return s.Table1(), nil },
	},
	{
		ID: "fig1", Title: "Figure 1: spread of the phone attribute",
		Needs: localIndexArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig1() },
		Claims: []Claim{
			claim("fig1a-top10", "Fig1a: top-10 sites cover ~93% of restaurant phones (k=1; > 80%)",
				func(rs []*SpreadResult) Verdict { return coverageAt(restaurants(rs, 1), 10).above(0.8) }),
			claim("fig1a-top100", "Fig1a: top-100 sites cover ~100% of restaurant phones (k=1; > 95%)",
				func(rs []*SpreadResult) Verdict { return coverageAt(restaurants(rs, 1), 100).above(0.95) }),
			claim("fig1a-k5", "Fig1a: k=5 needs ~5000 sites for 90% phone coverage (>= 1000)",
				func(rs []*SpreadResult) Verdict { return sitesToReach(restaurants(rs, 5), 0.9).atLeast(1000) }),
		},
	},
	{
		ID: "fig2", Title: "Figure 2: spread of the homepage attribute",
		Needs: localIndexArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig2() },
		Claims: []Claim{
			claim("fig2a-t95", "Fig2a: >= ~10,000 sites for 95% of restaurant homepages (k=1; >= 3000)",
				func(rs []*SpreadResult) Verdict { return sitesToReach(restaurants(rs, 1), 0.95).atLeast(3000) }),
			// With fig1a-top10 (phones > 80%), homepages trail phones
			// at the top 10 sites by more than 15 points.
			claim("fig2a-top10", "Fig2a: homepages far more spread than phones: top-10 sites cover < 65% of restaurant homepages (k=1)",
				func(rs []*SpreadResult) Verdict { return coverageAt(restaurants(rs, 1), 10).below(0.65) }),
		},
	},
	{
		ID: "fig3", Title: "Figure 3: spread of book ISBN numbers",
		Needs: []Artifact{indexArtifact(entity.Books)},
		Run:   func(s *Study) (any, error) { return s.Fig3() },
		Claims: []Claim{
			claim("fig3-reach", "Fig3: book ISBNs reach ~100% 1-coverage over all sites (>= 95%)",
				func(r *SpreadResult) Verdict { return percent(last(r.Curves[0].Coverage)).atLeast(0.95) }),
		},
	},
	{
		ID: "fig4", Title: "Figure 4: spread of restaurant reviews",
		Needs: []Artifact{indexArtifact(entity.Restaurants)},
		Run:   func(s *Study) (any, error) { return s.Fig4() },
		Claims: []Claim{
			claim("fig4a-t90", "Fig4a: > 1000 sites for 90% review 1-coverage",
				func(r *Fig4Result) Verdict { return sitesToReach(r.A.Curves[0], 0.9).above(1000) }),
			claim("fig4-lag", "Fig4: review-page coverage lags entity coverage (top-1000: below; mid cut point: within 5 points)",
				func(r *Fig4Result) Verdict {
					a, b := r.A.Curves[0], coverage.Curve{T: r.B.T, Coverage: r.B.Coverage}
					e, p := coverageAt(a, 1000).Value, coverageAt(b, 1000).Value
					mid := len(a.T) / 2
					lead := b.Coverage[mid] - a.Coverage[mid]
					return Verdict{
						Measured: fmt.Sprintf("top-1000 entities %.1f%% vs pages %.1f%%; t=%d page lead %+.1f points", 100*e, 100*p, a.T[mid], 100*lead),
						Value:    e - p, OK: p < e && lead <= 0.05,
					}
				}),
		},
	},
	{
		ID: "fig5", Title: "Figure 5: greedy set cover vs size order",
		Needs: []Artifact{indexArtifact(entity.Restaurants)},
		Run:   func(s *Study) (any, error) { return s.Fig5() },
		Claims: []Claim{
			claim("fig5-gap", "Fig5: greedy set cover improvement is insignificant (gap < 15 points)",
				func(r *Fig5Result) Verdict {
					gap := 0.0
					for i := range r.BySize.Coverage {
						gap = math.Max(gap, r.Greedy.Coverage[i]-r.BySize.Coverage[i])
					}
					return Verdict{Measured: fmt.Sprintf("max gap %.1f points", 100*gap), Value: gap}.below(0.15)
				}),
		},
	},
	{
		ID: "fig6", Title: "Figure 6: the long tail of demand",
		Needs: allDemandArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig6() },
		Claims: []Claim{
			claim("fig6a-order", "Fig6a: top-20% share ordering IMDb > Amazon > Yelp (search)",
				func(rs []*Fig6Result) Verdict {
					t := searchTop20(rs)
					return Verdict{
						Measured: fmt.Sprintf("imdb %.0f%%, amazon %.0f%%, yelp %.0f%%", 100*t[logs.IMDb], 100*t[logs.Amazon], 100*t[logs.Yelp]),
						Value:    math.Min(t[logs.IMDb]-t[logs.Amazon], t[logs.Amazon]-t[logs.Yelp]),
					}.above(0)
				}),
			claim("fig6a-imdb", "Fig6a: IMDb top-20% of titles carry ~90% of demand (> 80%)",
				func(rs []*Fig6Result) Verdict { return percent(searchTop20(rs)[logs.IMDb]).above(0.8) }),
			claim("fig6a-yelp", "Fig6a: Yelp top-20% of businesses carry ~60% of demand (< 80%)",
				func(rs []*Fig6Result) Verdict { return percent(searchTop20(rs)[logs.Yelp]).below(0.8) }),
		},
	},
	{
		ID: "fig7", Title: "Figure 7: normalized demand vs review count",
		Needs: allDemandArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig7() },
		Claims: []Claim{
			claim("fig7-rising", "Fig7: demand rises with the number of reviews (last bin over first, every site and source, >= 3 bins)",
				func(rs []*Fig78Result) Verdict {
					rise := math.Inf(1)
					for _, r := range rs {
						d := math.Inf(-1) // too few bins to rise
						if n := len(r.Bins); n >= 3 {
							d = r.Bins[n-1].MeanDemand - r.Bins[0].MeanDemand
						}
						rise = math.Min(rise, d)
					}
					return Verdict{Measured: fmt.Sprintf("smallest rise %.2f", rise), Value: rise}.above(0)
				}),
		},
	},
	{
		ID: "fig8", Title: "Figure 8: relative value-add VA(n)/VA(0)",
		Needs: allDemandArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig8() },
		Claims: []Claim{
			claim("fig8-yelp", "Fig8: Yelp VA(n)/VA(0) decreases toward the head (head bin < 1, search and browse)",
				func(rs []*Fig78Result) Verdict { return fig8(rs, logs.Yelp, "head", last, math.Max).below(1) }),
			claim("fig8-amazon", "Fig8: Amazon VA(n)/VA(0) decreases toward the head (head bin < 1, search and browse)",
				func(rs []*Fig78Result) Verdict { return fig8(rs, logs.Amazon, "head", last, math.Max).below(1) }),
			claim("fig8-imdb", "Fig8: IMDb VA rises at mid popularity then falls for the head (interior peak > 1, search and browse)",
				func(rs []*Fig78Result) Verdict { return fig8(rs, logs.IMDb, "interior peak", hump, math.Min).above(1) }),
		},
	},
	{
		ID: "table2", Title: "Table 2: entity–site graph metrics",
		Needs: graphArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Table2() },
		Claims: []Claim{
			claim("table2-largest", "Table2: largest component covers ~99%+ of entities (phone/ISBN; > 97%)",
				func(rows []Table2Row) Verdict {
					v, _, _ := table2Extremes(rows, entity.AttrPhone, entity.AttrISBN)
					return percent(v).above(0.97)
				}),
			claim("table2-diameter", "Table2: diameters small (paper 6-8; phone/ISBN <= 12)",
				func(rows []Table2Row) Verdict {
					_, d, _ := table2Extremes(rows, entity.AttrPhone, entity.AttrISBN)
					return Verdict{Measured: fmt.Sprintf("max diameter %d", d), Value: float64(d)}.atMost(12)
				}),
			claim("table2-homepage", "Table2: homepage graphs less connected than phone graphs (mean largest component), yet >= 50% connected with diameter <= 40",
				func(rows []Table2Row) Verdict {
					_, _, phone := table2Extremes(rows, entity.AttrPhone)
					minFrac, d, home := table2Extremes(rows, entity.AttrHomepage)
					return Verdict{
						Measured: fmt.Sprintf("mean phone %.1f%% vs homepage %.1f%%; homepage min %.1f%%, max diameter %d", 100*phone, 100*home, 100*minFrac, d),
						Value:    phone - home, OK: phone > home && minFrac >= 0.5 && d <= 40,
					}
				}),
		},
	},
	{
		ID: "fig9", Title: "Figure 9: robustness to top-site removal",
		Needs: graphArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig9() },
		Claims: []Claim{
			claim("fig9-top10", "Fig9: > 99% in largest component after removing top-10 (phone/ISBN; > 95%)",
				func(rs []*Fig9Result) Verdict {
					v := 1.0
					for _, r := range rs {
						if r.Attr != entity.AttrHomepage {
							v = math.Min(v, last(r.Curve))
						}
					}
					return percent(v).above(0.95)
				}),
		},
	},
}

// ExperimentInfo is the serializable metadata of one registered
// experiment: its ID, display title, and the names of the artifacts it
// builds on. It is the wire shape of GET /v1/experiments and the source
// of cmd/analyze's usage text.
type ExperimentInfo struct {
	ID    string   `json:"id"`
	Title string   `json:"title"`
	Needs []string `json:"needs,omitempty"`
}

// ExperimentInfos returns the registry's metadata in paper order.
func ExperimentInfos() []ExperimentInfo {
	out := make([]ExperimentInfo, len(registry))
	for i, e := range registry {
		info := ExperimentInfo{ID: e.ID, Title: e.Title}
		for _, a := range e.Needs {
			info.Needs = append(info.Needs, a.Name)
		}
		out[i] = info
	}
	return out
}

// ExperimentIDs lists the registered experiment IDs in paper order.
func ExperimentIDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// LookupExperiment returns the registry entry for id.
func LookupExperiment(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunResult is one experiment's outcome.
type RunResult struct {
	ID      string
	Title   string
	Value   any
	Err     error
	Elapsed time.Duration
}

// ArtifactTiming records one artifact build's wall-clock cost. Because
// builds are deduplicated, the artifact may have been (partly) built by
// an overlapping experiment or an earlier call; Elapsed measures the
// wait observed by this run's prewarm worker.
type ArtifactTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunReport is the outcome of a RunAll/RunExperiments call.
type RunReport struct {
	// Artifacts holds per-artifact prewarm timings, one entry per
	// deduplicated artifact in discovery order. Elapsed is zero for
	// builds skipped by context cancellation.
	Artifacts []ArtifactTiming
	// Results holds one entry per requested experiment, in request
	// order.
	Results []RunResult
	// Elapsed is the whole run's wall-clock time.
	Elapsed time.Duration
}

// Err returns the first experiment error in request order, if any.
func (r *RunReport) Err() error {
	for _, res := range r.Results {
		if res.Err != nil {
			return fmt.Errorf("core: experiment %s: %w", res.ID, res.Err)
		}
	}
	return nil
}

// RunAll runs every registered experiment, fanning the artifact builds
// and then the experiment analyses across a bounded worker pool
// (workers <= 0: GOMAXPROCS). Results are deterministic in the Study's
// seed regardless of workers. The returned error is the first
// experiment error (the report still carries every result) or the
// context's error if ctx is cancelled.
//
//repro:testonly-ok bench/study.go and bench/trace.go run it; ROADMAP item 6 retires that caller
func (s *Study) RunAll(ctx context.Context, workers int) (*RunReport, error) {
	return s.RunExperiments(ctx, ExperimentIDs(), workers)
}

// RunExperiments runs the named subset of the registry concurrently;
// see RunAll.
func (s *Study) RunExperiments(ctx context.Context, ids []string, workers int) (*RunReport, error) {
	start := time.Now() //repro:nondeterm-ok run-report wall time, reported beside results, never in them
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := LookupExperiment(id)
		if !ok {
			return nil, fmt.Errorf("core: unknown experiment %q", id)
		}
		exps[i] = e
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Phase 1: prewarm the union of needed artifacts. Deduplicated by
	// name; each build is one pool task, so independent domains/sites
	// saturate the pool even when a single experiment needs many.
	seen := make(map[string]bool)
	var artifacts []Artifact
	for _, e := range exps {
		for _, a := range e.Needs {
			if !seen[a.Name] {
				seen[a.Name] = true
				artifacts = append(artifacts, a)
			}
		}
	}
	report := &RunReport{Results: make([]RunResult, len(exps))}
	timings := make([]ArtifactTiming, len(artifacts))
	for i, a := range artifacts {
		timings[i].Name = a.Name // named even if cancellation skips the build
	}
	runPool(ctx, workers, len(artifacts), func(i int) {
		t0 := time.Now() //repro:nondeterm-ok artifact build timing telemetry
		sp := obs.StartSpan("artifact/" + artifacts[i].Name)
		// Build errors surface again (memoized-retry) in phase 2 via the
		// experiment that needs the artifact, with experiment attribution.
		_ = artifacts[i].Build(s)
		sp.End()
		timings[i].Elapsed = time.Since(t0) //repro:nondeterm-ok artifact build timing telemetry
	})
	report.Artifacts = timings

	// Phase 2: run the experiment analyses, fanned out like the builds.
	// Once artifacts exist these are cheap: Table 2's exact diameters and
	// Figure 9's curves, once most of a cold study, take ~27–30 ms
	// together at small scale on 2 vCPUs since a double sweep seeds
	// iFUB's lower bound.
	runPool(ctx, workers, len(exps), func(i int) {
		t0 := time.Now() //repro:nondeterm-ok experiment timing telemetry
		sp := obs.StartSpan("experiment/" + exps[i].ID)
		v, err := exps[i].Run(s)
		sp.End()
		report.Results[i] = RunResult{
			ID: exps[i].ID, Title: exps[i].Title,
			Value: v, Err: err, Elapsed: time.Since(t0), //repro:nondeterm-ok experiment timing telemetry
		}
	})
	for i := range report.Results {
		if report.Results[i].ID == "" { // skipped: ctx cancelled before start
			report.Results[i] = RunResult{ID: exps[i].ID, Title: exps[i].Title, Err: ctx.Err()}
		}
	}
	report.Elapsed = time.Since(start) //repro:nondeterm-ok run-report wall time, reported beside results, never in them
	if err := ctx.Err(); err != nil {
		return report, err
	}
	return report, report.Err()
}

// runPool fans n tasks across a bounded worker pool, skipping remaining
// tasks once ctx is cancelled.
func runPool(ctx context.Context, workers, n int, task func(i int)) {
	if workers > n {
		workers = n
	}
	if n == 0 {
		return
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				task(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		ch <- i
	}
	close(ch)
	wg.Wait()
}
