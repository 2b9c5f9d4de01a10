package coverage

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/entity"
	"repro/internal/index"
)

// buildIndex makes a small index: hosts h0..h3 with explicit postings.
func buildIndex(t *testing.T, postings map[string][]int, numEntities int) *index.Index {
	t.Helper()
	b := index.NewBuilder(entity.Restaurants, entity.AttrPhone, numEntities)
	for host, ids := range postings {
		for _, id := range ids {
			b.Add(host, id)
		}
	}
	return b.Build()
}

func TestLogSpacedT(t *testing.T) {
	got := LogSpacedT(35)
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 35}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LogSpacedT(35) = %v", got)
	}
	if got := LogSpacedT(1); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("LogSpacedT(1) = %v", got)
	}
	if got := LogSpacedT(0); got != nil {
		t.Errorf("LogSpacedT(0) = %v", got)
	}
	if got := LogSpacedT(100); got[len(got)-1] != 100 {
		t.Errorf("LogSpacedT(100) missing endpoint: %v", got)
	}
}

func TestLogSpacedTAscending(t *testing.T) {
	for _, max := range []int{1, 7, 10, 99, 1000, 123456} {
		pts := LogSpacedT(max)
		for i := 1; i < len(pts); i++ {
			if pts[i] <= pts[i-1] {
				t.Fatalf("maxT=%d not ascending: %v", max, pts)
			}
		}
		if pts[len(pts)-1] != max {
			t.Fatalf("maxT=%d endpoint missing: %v", max, pts)
		}
	}
}

func TestKCoverageHandComputed(t *testing.T) {
	// 4 entities; h0 covers {0,1,2}, h1 covers {0,1}, h2 covers {0}.
	// Size order: h0, h1, h2.
	idx := buildIndex(t, map[string][]int{
		"h0": {0, 1, 2},
		"h1": {0, 1},
		"h2": {0},
	}, 4)
	curves, err := KCoverage(idx, 3, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// k=1: t=1 -> 3/4; t=2 -> 3/4; t=3 -> 3/4.
	want1 := []float64{0.75, 0.75, 0.75}
	// k=2: t=1 -> 0; t=2 -> 2/4; t=3 -> 2/4.
	want2 := []float64{0, 0.5, 0.5}
	// k=3: t=3 -> 1/4.
	want3 := []float64{0, 0, 0.25}
	for i, want := range [][]float64{want1, want2, want3} {
		if !reflect.DeepEqual(curves[i].Coverage, want) {
			t.Errorf("k=%d coverage = %v, want %v", i+1, curves[i].Coverage, want)
		}
	}
}

func TestKCoverageValidation(t *testing.T) {
	idx := buildIndex(t, map[string][]int{"h": {0}}, 1)
	if _, err := KCoverage(idx, 0, []int{1}); err == nil {
		t.Error("kMax=0 should fail")
	}
	if _, err := KCoverage(idx, 1, []int{2, 1}); err == nil {
		t.Error("descending tPoints should fail")
	}
	if _, err := KCoverage(idx, 1, []int{0}); err == nil {
		t.Error("t=0 should fail")
	}
	bad := &index.Index{NumEntities: 0}
	if _, err := KCoverage(bad, 1, []int{1}); err == nil {
		t.Error("zero universe should fail")
	}
	neg := &index.Index{NumEntities: 2, Sites: []index.Site{{Host: "h", Entities: []int{-1, 0}}}}
	if _, err := KCoverage(neg, 1, []int{1}); err == nil {
		t.Error("negative entity id should fail")
	}
	// IDs past NumEntities are legal: the homepage universe is smaller
	// than the id space.
	wide := &index.Index{NumEntities: 1, Sites: []index.Site{{Host: "h", Entities: []int{5}}}}
	if curves, err := KCoverage(wide, 1, []int{1}); err != nil || curves[0].Coverage[0] != 1 {
		t.Errorf("wide ids: %v, %v", curves, err)
	}
}

func TestKCoverageTPointsBeyondSites(t *testing.T) {
	idx := buildIndex(t, map[string][]int{"h0": {0, 1}}, 2)
	curves, err := KCoverage(idx, 1, []int{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(curves[0].Coverage, []float64{1, 1, 1}) {
		t.Errorf("coverage = %v", curves[0].Coverage)
	}
}

func TestKCoverageMonotonicity(t *testing.T) {
	idx := buildIndex(t, map[string][]int{
		"a": {0, 1, 2, 3, 4}, "b": {2, 3, 4}, "c": {4, 5}, "d": {0}, "e": {6, 7}, "f": {1, 7},
	}, 10)
	curves, err := KCoverage(idx, 4, []int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		for i := 1; i < len(c.Coverage); i++ {
			if c.Coverage[i]+1e-12 < c.Coverage[i-1] {
				t.Errorf("k=%d not monotone in t: %v", c.K, c.Coverage)
			}
		}
	}
	// Coverage decreases with k at fixed t.
	for ti := range curves[0].Coverage {
		for k := 1; k < len(curves); k++ {
			if curves[k].Coverage[ti] > curves[k-1].Coverage[ti]+1e-12 {
				t.Errorf("t=%d: k=%d coverage exceeds k=%d", curves[0].T[ti], k+1, k)
			}
		}
	}
}

func TestKCoverageOrderExplicit(t *testing.T) {
	idx := buildIndex(t, map[string][]int{
		"big": {0, 1, 2}, "small": {3},
	}, 4)
	// Visit small first.
	var smallIdx int
	for i, s := range idx.Sites {
		if s.Host == "small" {
			smallIdx = i
		}
	}
	order := []int{smallIdx, 1 - smallIdx}
	curves, err := KCoverageOrder(idx, order, 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if curves[0].Coverage[0] != 0.25 || curves[0].Coverage[1] != 1 {
		t.Errorf("explicit order coverage = %v", curves[0].Coverage)
	}
	if _, err := KCoverageOrder(idx, []int{5}, 1, []int{1}); err == nil {
		t.Error("out-of-range order entry should fail")
	}
	if _, err := KCoverageOrder(idx, []int{0, 1, 0}, 1, []int{1}); err == nil {
		t.Error("order longer than sites should fail")
	}
}

func TestAggregateCoverage(t *testing.T) {
	b := index.NewBuilder(entity.Restaurants, entity.AttrReview, 10)
	b.Add("big", 0)
	b.Add("big", 1)
	b.Add("big", 2)
	for i := 0; i < 6; i++ {
		b.AddPage("big")
	}
	b.Add("small", 3)
	b.AddPage("small")
	b.AddPage("small")
	b.Add("tiny", 4)
	b.AddPage("tiny")
	b.AddPage("tiny")
	idx := b.Build()

	curve, err := AggregateCoverage(idx, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Size order: big (3 entities), small (1, "small" < "tiny"), tiny.
	want := []float64{0.6, 0.8, 1.0}
	for i := range want {
		if math.Abs(curve.Coverage[i]-want[i]) > 1e-12 {
			t.Errorf("aggregate[%d] = %v, want %v", i, curve.Coverage[i], want[i])
		}
	}
}

func TestAggregateCoverageErrors(t *testing.T) {
	idx := buildIndex(t, map[string][]int{"h": {0}}, 1)
	if _, err := AggregateCoverage(idx, []int{1}); err == nil {
		t.Error("no pages should fail")
	}
	b := index.NewBuilder(entity.Restaurants, entity.AttrReview, 1)
	b.AddPage("h")
	idx2 := b.Build()
	if _, err := AggregateCoverage(idx2, []int{3, 2}); err == nil {
		t.Error("bad tPoints should fail")
	}
}

func TestFirstTReaching(t *testing.T) {
	c := Curve{T: []int{1, 10, 100}, Coverage: []float64{0.2, 0.5, 0.9}}
	if got := c.FirstTReaching(0.5); got != 10 {
		t.Errorf("FirstTReaching(0.5) = %d", got)
	}
	if got := c.FirstTReaching(0.95); got != -1 {
		t.Errorf("FirstTReaching(0.95) = %d", got)
	}
	if got := c.FirstTReaching(0.1); got != 1 {
		t.Errorf("FirstTReaching(0.1) = %d", got)
	}
}
