package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/synth"
)

// smallScaleTolerance holds the written exceptions for claims that miss
// the paper's threshold on the small web. Each bound applies to the
// claim's Verdict.Value; its comment gives the range measured over seeds
// 1–8 (identical with extraction on), and none is looser than the
// single-seed test assertion the claim replaced. The printed verdicts
// (report.RunMany) keep the paper's thresholds.
var smallScaleTolerance = map[string]func(v float64) bool{
	// Documented exception: the paper's absolute count of > 1000 sites
	// cannot hold on a web whose review index has 2,527 sites. Measured
	// t=200 on all eight seeds (the top 100 sites never reach 90%).
	"fig4a-t90": func(v float64) bool { return v >= 200 },
	// Measured 13.0–16.3 points, 16.3 on seed 7; the replaced test
	// allowed 25.
	"fig5-gap": func(v float64) bool { return v < 0.2 },
	// Measured 96.59–97.34%, below 97% on seeds 3, 4 and 6; the replaced
	// test asserted >= 50%.
	"table2-largest": func(v float64) bool { return v > 0.96 },
	// Measured 94.06–94.60% on all eight seeds; the replaced test
	// asserted >= 90%.
	"fig9-top10": func(v float64) bool { return v > 0.94 },
}

// TestClaimsAcrossSeeds holds every registry claim across seeds 1–8 at
// small scale: a claim must hold on every seed, or within its written
// small-scale tolerance. Extraction on runs for seed 1 only; the
// extraction-vs-direct suites pin identical indexes, so verdicts match.
func TestClaimsAcrossSeeds(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range registry {
		for _, c := range e.Claims {
			if ids[c.ID] {
				t.Errorf("duplicate claim ID %q", c.ID)
			}
			ids[c.ID] = true
		}
	}
	for id := range smallScaleTolerance {
		if !ids[id] {
			t.Errorf("tolerance for unknown claim %q", id)
		}
	}

	type run struct {
		seed       uint64
		extraction bool
	}
	runs := []run{{1, true}}
	for seed := uint64(1); seed <= 8; seed++ {
		runs = append(runs, run{seed, false})
	}
	for _, r := range runs {
		t.Run(fmt.Sprintf("seed=%d/extraction=%t", r.seed, r.extraction), func(t *testing.T) {
			t.Parallel()
			sc := synth.ScaleSmall
			s := NewStudy(Config{
				Seed:           r.seed,
				Entities:       sc.Entities,
				DirectoryHosts: sc.DirectoryHosts,
				CatalogN:       sc.Entities,
				UseExtraction:  r.extraction,
			})
			rep, err := s.RunAll(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			verdicts := rep.Claims()
			if len(verdicts) != len(ids) {
				t.Fatalf("%d verdicts, want one per claim (%d)", len(verdicts), len(ids))
			}
			for _, c := range verdicts {
				ok := c.OK
				if tol, found := smallScaleTolerance[c.ID]; found && !ok {
					ok = tol(c.Value)
				}
				if !ok {
					t.Errorf("%s: %s | measured: %s", c.ID, c.Paper, c.Measured)
				}
			}
		})
	}
}
