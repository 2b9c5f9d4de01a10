// Package coverage implements the §3 spread analyses: k-coverage of the
// top-t sites (Figures 1–4a), aggregate page-mass coverage (Figure 4b),
// and the greedy set-cover ordering comparison (Figure 5).
//
// Definitions follow §3.3: given websites W and integer k, the
// k-coverage of W is the fraction of database entities present on at
// least k different websites in W. Sites are ordered descending by the
// number of entities they contain.
package coverage

import (
	"fmt"

	"repro/internal/index"
)

// Curve is the k-coverage series for one k: Coverage[i] is the
// k-coverage of the top T[i] sites.
type Curve struct {
	K        int
	T        []int
	Coverage []float64
}

// LogSpacedT returns the 1,2,...,9,10,20,...,90,100,... sequence of
// top-t cut points up to and including maxT (the final point is maxT
// itself if not already present). It returns nil for maxT < 1.
func LogSpacedT(maxT int) []int {
	if maxT < 1 {
		return nil
	}
	var out []int
	for decade := 1; decade <= maxT; decade *= 10 {
		for m := 1; m <= 9; m++ {
			t := decade * m
			if t > maxT {
				break
			}
			out = append(out, t)
		}
		if decade > maxT/10 {
			break
		}
	}
	if out[len(out)-1] != maxT {
		out = append(out, maxT)
	}
	return out
}

// KCoverage computes k-coverage curves for k = 1..kMax over the index's
// size-descending site order, sampling at the given top-t cut points
// (which must be ascending positive). It returns an error for invalid
// arguments.
func KCoverage(idx *index.Index, kMax int, tPoints []int) ([]Curve, error) {
	if kMax < 1 {
		return nil, fmt.Errorf("coverage: kMax must be >= 1, got %d", kMax)
	}
	if idx.NumEntities <= 0 {
		return nil, fmt.Errorf("coverage: index has no entity universe (NumEntities=%d)", idx.NumEntities)
	}
	if err := checkTPoints(tPoints); err != nil {
		return nil, err
	}

	bound, err := idx.EntityBound()
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}

	curves := make([]Curve, kMax)
	for k := 1; k <= kMax; k++ {
		curves[k-1] = Curve{K: k, T: make([]int, 0, len(tPoints)), Coverage: make([]float64, 0, len(tPoints))}
	}
	seen := make([]int, bound) // entity -> #sites so far
	atLeast := make([]int, kMax+1)
	n := float64(idx.NumEntities)

	ti := 0
	record := func(t int) {
		for ti < len(tPoints) && tPoints[ti] <= t {
			for k := 1; k <= kMax; k++ {
				curves[k-1].T = append(curves[k-1].T, tPoints[ti])
				curves[k-1].Coverage = append(curves[k-1].Coverage, float64(atLeast[k])/n)
			}
			ti++
		}
	}
	for i := range idx.Sites {
		for _, e := range idx.Sites[i].Entities {
			seen[e]++
			if c := seen[e]; c <= kMax {
				atLeast[c]++
			}
		}
		record(i + 1)
	}
	// Cut points beyond the number of sites keep the final value.
	for ; ti < len(tPoints); ti++ {
		for k := 1; k <= kMax; k++ {
			curves[k-1].T = append(curves[k-1].T, tPoints[ti])
			curves[k-1].Coverage = append(curves[k-1].Coverage, float64(atLeast[k])/n)
		}
	}
	return curves, nil
}

// checkTPoints rejects top-t cut points that are not ascending
// positive.
func checkTPoints(tPoints []int) error {
	for i, t := range tPoints {
		if t < 1 || (i > 0 && t <= tPoints[i-1]) {
			return fmt.Errorf("coverage: tPoints must be ascending positive, got %v", tPoints)
		}
	}
	return nil
}

// AggregateCurve is the page-mass coverage series of Figure 4(b):
// Coverage[i] is the fraction of all attribute pages (reviews) that live
// on the top T[i] sites.
type AggregateCurve struct {
	T        []int
	Coverage []float64
}

// AggregateCoverage computes the fraction of total attribute pages
// covered by the top-t sites in the index's size order.
func AggregateCoverage(idx *index.Index, tPoints []int) (AggregateCurve, error) {
	total := idx.TotalPages()
	if total == 0 {
		return AggregateCurve{}, fmt.Errorf("coverage: index has no attribute pages")
	}
	if err := checkTPoints(tPoints); err != nil {
		return AggregateCurve{}, err
	}
	out := AggregateCurve{}
	cum := 0
	ti := 0
	for i := range idx.Sites {
		cum += idx.Sites[i].Pages
		for ti < len(tPoints) && tPoints[ti] <= i+1 {
			out.T = append(out.T, tPoints[ti])
			out.Coverage = append(out.Coverage, float64(cum)/float64(total))
			ti++
		}
	}
	for ; ti < len(tPoints); ti++ {
		out.T = append(out.T, tPoints[ti])
		out.Coverage = append(out.Coverage, float64(cum)/float64(total))
	}
	return out, nil
}

// FirstTReaching returns the smallest top-t at which the curve reaches
// the given coverage fraction, or -1 if it never does. Used by the
// experiment shape checks ("need 1000 sites for 90%").
func (c Curve) FirstTReaching(frac float64) int {
	for i, cov := range c.Coverage {
		if cov >= frac {
			return c.T[i]
		}
	}
	return -1
}
