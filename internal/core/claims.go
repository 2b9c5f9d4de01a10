package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/coverage"
	"repro/internal/entity"
	"repro/internal/logs"
)

// Claim is one of the paper's statements about an experiment's result,
// held to an explicit threshold. Check reads only the experiment's own
// Run result — never the Study — so judging a run costs nothing beyond
// the run.
type Claim struct {
	ID    string // unique across the registry
	Paper string // the paper's statement and the threshold checked
	Check func(result any) Verdict
}

// Verdict is a claim's outcome on one result: Value is the headline
// number the threshold bounds (NaN when it cannot be measured),
// Measured renders the evidence.
type Verdict struct {
	Measured string
	Value    float64
	OK       bool
}

// ClaimResult pairs a claim with its verdict on one run.
type ClaimResult struct {
	Claim
	Verdict
}

// Claims judges every successful result of the report against its
// experiment's claims, in request order. RunAll and RunExperiments never
// call it; only the consumers that report claims do.
func (r *RunReport) Claims() []ClaimResult {
	var out []ClaimResult
	for _, res := range r.Results {
		if res.Err != nil {
			continue
		}
		e, _ := LookupExperiment(res.ID)
		for _, c := range e.Claims {
			out = append(out, ClaimResult{c, c.Check(res.Value)})
		}
	}
	return out
}

// claim adapts a typed check to Claim.Check.
func claim[T any](id, paper string, check func(T) Verdict) Claim {
	return Claim{ID: id, Paper: paper, Check: func(v any) Verdict { return check(v.(T)) }}
}

func (v Verdict) above(min float64) Verdict   { v.OK = v.Value > min; return v }
func (v Verdict) atLeast(min float64) Verdict { v.OK = v.Value >= min; return v }
func (v Verdict) below(max float64) Verdict   { v.OK = v.Value < max; return v }
func (v Verdict) atMost(max float64) Verdict  { v.OK = v.Value <= max; return v }

func percent(v float64) Verdict { return Verdict{Measured: fmt.Sprintf("%.1f%%", 100*v), Value: v} }

// coverageAt measures c at cut point t (NaN when c does not sample it).
func coverageAt(c coverage.Curve, t int) Verdict {
	for i, tv := range c.T {
		if tv == t {
			return percent(c.Coverage[i])
		}
	}
	return percent(math.NaN())
}

// sitesToReach measures the first cut point at which c reaches frac (-1
// when it never does).
func sitesToReach(c coverage.Curve, frac float64) Verdict {
	t := c.FirstTReaching(frac)
	return Verdict{Measured: fmt.Sprintf("t=%d", t), Value: float64(t)}
}

// restaurants returns the restaurant panel's k-coverage curve from a
// Figure 1/2 result.
func restaurants(rs []*SpreadResult, k int) coverage.Curve {
	for _, r := range rs {
		if r.Domain == entity.Restaurants {
			return r.Curves[k-1]
		}
	}
	return coverage.Curve{}
}

// searchTop20 returns each site's top-20% demand share under search.
func searchTop20(rs []*Fig6Result) map[logs.Site]float64 {
	top20 := map[logs.Site]float64{}
	for _, r := range rs {
		if r.Source == logs.Search {
			top20[r.Site] = r.Top20
		}
	}
	return top20
}

// fig8 measures stat for one site under each traffic source and keeps
// the worst of them.
func fig8(rs []*Fig78Result, site logs.Site, name string, stat func([]float64) float64, worst func(a, b float64) float64) Verdict {
	v, measured := math.NaN(), []string{}
	for _, r := range rs {
		if r.Site != site {
			continue
		}
		rel := make([]float64, len(r.Bins))
		for i, b := range r.Bins {
			rel[i] = b.RelVA
		}
		s := stat(rel)
		if len(measured) == 0 {
			v = s
		}
		v = worst(v, s)
		measured = append(measured, fmt.Sprintf("%s %s %.2f", r.Source, name, s))
	}
	return Verdict{Measured: strings.Join(measured, ", "), Value: v}
}

// last is a series' final value, NaN when empty.
func last(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[len(xs)-1]
}

// hump is a series' peak if the peak is interior, else 0.
func hump(xs []float64) float64 {
	at := 0
	for i := range xs {
		if xs[i] > xs[at] {
			at = i
		}
	}
	if at == 0 || at == len(xs)-1 {
		return 0
	}
	return xs[at]
}

// table2Extremes reduces the Table 2 rows of attrs to their smallest
// largest-component fraction, largest diameter and mean largest fraction.
func table2Extremes(rows []Table2Row, attrs ...entity.Attr) (minFrac float64, maxDiam int, mean float64) {
	minFrac, n := 1, 0
	for _, r := range rows {
		for _, a := range attrs {
			if r.Attr == a {
				minFrac, maxDiam = math.Min(minFrac, r.FracLargest), max(maxDiam, r.Diameter)
				mean, n = mean+r.FracLargest, n+1
			}
		}
	}
	return minFrac, maxDiam, mean / float64(n)
}
