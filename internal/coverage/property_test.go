package coverage

import (
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/index"
)

// randomIndex builds an index with up to 40 sites over up to 120
// entities from a quick-check seed.
func randomIndex(seed uint64) *index.Index {
	rng := dist.NewRNG(seed)
	n := 20 + rng.Intn(100)
	sites := 5 + rng.Intn(35)
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, n)
	for s := 0; s < sites; s++ {
		host := hostN(s)
		for j := 0; j < 1+rng.Intn(12); j++ {
			b.Add(host, rng.Intn(n))
		}
	}
	return b.Build()
}

// TestPropertyFinalCoverageEqualsDistinct: the k=1 curve's final value
// must equal DistinctEntities / NumEntities exactly.
func TestPropertyFinalCoverageEqualsDistinct(t *testing.T) {
	f := func(seed uint64) bool {
		idx := randomIndex(seed)
		curves, err := KCoverage(idx, 1, []int{len(idx.Sites)})
		if err != nil {
			return false
		}
		distinct, err := idx.DistinctEntities()
		if err != nil {
			return false
		}
		return curves[0].Coverage[0] == float64(distinct)/float64(idx.NumEntities)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyKCoverageBounds: every curve value lies in [0, 1] and the
// k=1 value at full t is an upper bound for every (k, t) pair.
func TestPropertyKCoverageBounds(t *testing.T) {
	f := func(seed uint64) bool {
		idx := randomIndex(seed)
		curves, err := KCoverage(idx, 6, LogSpacedT(len(idx.Sites)))
		if err != nil {
			return false
		}
		final := curves[0].Coverage[len(curves[0].Coverage)-1]
		for _, c := range curves {
			for _, v := range c.Coverage {
				if v < 0 || v > 1 || v > final+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGreedyFinalCoverageMatchesUnion: run to exhaustion, the
// greedy cover reaches exactly the distinct-entity union.
func TestPropertyGreedyFinalCoverageMatchesUnion(t *testing.T) {
	f := func(seed uint64) bool {
		idx := randomIndex(seed)
		_, covered, err := GreedySetCover(idx, 0)
		if err != nil {
			return false
		}
		distinct, err := idx.DistinctEntities()
		if err != nil {
			return false
		}
		if len(covered) == 0 {
			return distinct == 0
		}
		return covered[len(covered)-1] == distinct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGreedyGainsNonIncreasing: marginal gains of successive
// greedy picks never increase (submodularity of coverage).
func TestPropertyGreedyGainsNonIncreasing(t *testing.T) {
	f := func(seed uint64) bool {
		idx := randomIndex(seed)
		_, covered, err := GreedySetCover(idx, 0)
		if err != nil {
			return false
		}
		prevGain := 1 << 30
		prev := 0
		for _, c := range covered {
			gain := c - prev
			if gain > prevGain {
				return false
			}
			prevGain = gain
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
