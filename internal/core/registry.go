package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/entity"
	"repro/internal/logs"
	"repro/internal/obs"
)

// Experiment is one named unit of the reproduction: a paper table or
// figure. Run computes its result from a Study's cached artifacts;
// Needs lists the expensive artifact keys it reads, so RunAll can
// prewarm them in parallel before any experiment starts.
type Experiment struct {
	ID    string
	Title string
	Needs []Artifact
	Run   func(*Study) (any, error)
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
		d := p[0].(entity.Domain)
		a := p[1].(entity.Attr)
		out = append(out, Artifact{
			Name:  "graph/" + string(d) + "/" + string(a),
			Build: func(s *Study) error { _, err := s.Graph(d, a); return err },
		})
	}
	return out
}

// registry lists the paper's artifacts in paper order. To add an
// experiment: append an entry with a unique ID, the artifacts it reads
// (for build parallelism), and a Run closure over the Study API; the
// report layer and cmd/analyze pick it up by ID automatically.
var registry = []Experiment{
	{
		ID: "table1", Title: "Table 1: studied domains and attributes",
		Run: func(s *Study) (any, error) { return s.Table1(), nil },
	},
	{
		ID: "fig1", Title: "Figure 1: spread of the phone attribute",
		Needs: localIndexArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig1() },
	},
	{
		ID: "fig2", Title: "Figure 2: spread of the homepage attribute",
		Needs: localIndexArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig2() },
	},
	{
		ID: "fig3", Title: "Figure 3: spread of book ISBN numbers",
		Needs: []Artifact{indexArtifact(entity.Books)},
		Run:   func(s *Study) (any, error) { return s.Fig3() },
	},
	{
		ID: "fig4", Title: "Figure 4: spread of restaurant reviews",
		Needs: []Artifact{indexArtifact(entity.Restaurants)},
		Run:   func(s *Study) (any, error) { return s.Fig4() },
	},
	{
		ID: "fig5", Title: "Figure 5: greedy set cover vs size order",
		Needs: []Artifact{indexArtifact(entity.Restaurants)},
		Run:   func(s *Study) (any, error) { return s.Fig5() },
	},
	{
		ID: "fig6", Title: "Figure 6: the long tail of demand",
		Needs: allDemandArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig6() },
	},
	{
		ID: "fig7", Title: "Figure 7: normalized demand vs review count",
		Needs: allDemandArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig7() },
	},
	{
		ID: "fig8", Title: "Figure 8: relative value-add VA(n)/VA(0)",
		Needs: allDemandArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig8() },
	},
	{
		ID: "table2", Title: "Table 2: entity–site graph metrics",
		Needs: graphArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Table2() },
	},
	{
		ID: "fig9", Title: "Figure 9: robustness to top-site removal",
		Needs: graphArtifacts(),
		Run:   func(s *Study) (any, error) { return s.Fig9() },
	},
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
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
	// Figure 9's curves, once most of a cold study, take ~40–55 ms
	// together at small scale since iFUB's fringe sweeps went
	// bit-parallel.
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
