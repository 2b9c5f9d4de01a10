package coverage

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/index"
)

func TestGreedySetCoverHandCase(t *testing.T) {
	// Classic case where greedy differs from size order: the largest set
	// overlaps heavily; two smaller disjoint sets cover more together.
	idx := buildIndex(t, map[string][]int{
		"bigoverlap": {0, 1, 2, 3},
		"left":       {0, 1, 2},
		"right":      {3, 4, 5},
	}, 6)
	order, covered, err := GreedySetCover(idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First pick is bigoverlap (4), then right (+3 -> 7? no: right adds
	// {4,5} = 2... left adds {} 0? left ⊂ bigoverlap: adds 0. So second
	// pick is right (gain 2). Third pick adds nothing and loop stops.
	if idx.Sites[order[0]].Host != "bigoverlap" {
		t.Errorf("first pick = %s", idx.Sites[order[0]].Host)
	}
	if idx.Sites[order[1]].Host != "right" {
		t.Errorf("second pick = %s", idx.Sites[order[1]].Host)
	}
	if !reflect.DeepEqual(covered, []int{4, 6}) {
		t.Errorf("covered = %v, want [4 6]", covered)
	}
}

func TestGreedyStopsAtZeroGain(t *testing.T) {
	idx := buildIndex(t, map[string][]int{
		"a": {0, 1}, "b": {0, 1}, "c": {1},
	}, 5)
	order, covered, err := GreedySetCover(idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || covered[0] != 2 {
		t.Errorf("order=%v covered=%v; duplicates should not be picked", order, covered)
	}
}

func TestGreedyMaxSites(t *testing.T) {
	idx := buildIndex(t, map[string][]int{
		"a": {0}, "b": {1}, "c": {2}, "d": {3},
	}, 4)
	order, covered, err := GreedySetCover(idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || covered[1] != 2 {
		t.Errorf("maxSites=2: order=%v covered=%v", order, covered)
	}
}

func TestGreedyLazyMatchesNaive(t *testing.T) {
	// Random index: lazy-greedy must produce exactly the same cumulative
	// coverage as the naive rescanning greedy (ties may order
	// differently, but the gains sequence is identical for distinct
	// gains; compare coverage values).
	rng := dist.NewRNG(5)
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, 200)
	for s := 0; s < 60; s++ {
		host := hostN(s)
		size := 1 + rng.Intn(40)
		for j := 0; j < size; j++ {
			b.Add(host, rng.Intn(200))
		}
	}
	idx := b.Build()
	_, lazyCov, err := GreedySetCover(idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, naiveCov, err := GreedySetCoverNaive(idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lazyCov) != len(naiveCov) {
		t.Fatalf("pick counts differ: %d vs %d", len(lazyCov), len(naiveCov))
	}
	for i := range lazyCov {
		if lazyCov[i] != naiveCov[i] {
			t.Errorf("step %d: lazy %d vs naive %d", i, lazyCov[i], naiveCov[i])
		}
	}
}

func hostN(i int) string {
	return string([]byte{'h', byte('a' + i/26), byte('a' + i%26)}) + ".com"
}

func TestGreedyBeatsOrEqualsSizeOrder(t *testing.T) {
	// Greedy 1-coverage dominates size-order 1-coverage at every t.
	rng := dist.NewRNG(9)
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, 500)
	for s := 0; s < 100; s++ {
		host := hostN(s)
		size := 1 + rng.Intn(80)
		for j := 0; j < size; j++ {
			b.Add(host, rng.Intn(500))
		}
	}
	idx := b.Build()
	tPoints := LogSpacedT(len(idx.Sites))
	sizeCurves, err := KCoverage(idx, 1, tPoints)
	if err != nil {
		t.Fatal(err)
	}
	_, covered, err := GreedySetCover(idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	greedy := CoverageOfGreedy(idx, covered, tPoints)
	for i := range tPoints {
		if greedy.Coverage[i]+1e-12 < sizeCurves[0].Coverage[i] {
			t.Errorf("t=%d: greedy %v below size order %v",
				tPoints[i], greedy.Coverage[i], sizeCurves[0].Coverage[i])
		}
	}
}

func TestCoverageOfGreedyEmpty(t *testing.T) {
	idx := buildIndex(t, map[string][]int{"a": {0}}, 2)
	c := CoverageOfGreedy(idx, nil, []int{1, 2})
	if !reflect.DeepEqual(c.Coverage, []float64{0, 0}) {
		t.Errorf("empty greedy coverage = %v", c.Coverage)
	}
}

func TestGreedyValidation(t *testing.T) {
	bad := &index.Index{NumEntities: 0}
	if _, _, err := GreedySetCover(bad, 0); err == nil {
		t.Error("zero universe should fail")
	}
	if _, _, err := GreedySetCoverNaive(bad, 0); err == nil {
		t.Error("naive zero universe should fail")
	}
	neg := &index.Index{NumEntities: 2, Sites: []index.Site{{Host: "h", Entities: []int{-1, 0}}}}
	if _, _, err := GreedySetCover(neg, 0); err == nil {
		t.Error("negative entity id should fail")
	}
	wide := &index.Index{NumEntities: 1, Sites: []index.Site{{Host: "h", Entities: []int{5}}}}
	if _, covered, err := GreedySetCover(wide, 0); err != nil || len(covered) != 1 || covered[0] != 1 {
		t.Errorf("wide ids: covered %v, %v", covered, err)
	}
}

// GreedySetCoverNaive is the textbook O(sites² · postings) greedy: it
// rescans every remaining site at every step. It is the oracle the
// lazy-greedy GreedySetCover is tested against.
func GreedySetCoverNaive(idx *index.Index, maxSites int) (order []int, covered []int, err error) {
	if idx.NumEntities <= 0 {
		return nil, nil, fmt.Errorf("coverage: index has no entity universe")
	}
	if maxSites <= 0 || maxSites > len(idx.Sites) {
		maxSites = len(idx.Sites)
	}
	coveredSet := make(map[int]struct{})
	used := make([]bool, len(idx.Sites))
	cum := 0
	for len(order) < maxSites {
		best, bestGain := -1, 0
		for i := range idx.Sites {
			if used[i] {
				continue
			}
			g := 0
			for _, e := range idx.Sites[i].Entities {
				if _, ok := coveredSet[e]; !ok {
					g++
				}
			}
			if g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		for _, e := range idx.Sites[best].Entities {
			coveredSet[e] = struct{}{}
		}
		cum = len(coveredSet)
		order = append(order, best)
		covered = append(covered, cum)
	}
	return order, covered, nil
}
