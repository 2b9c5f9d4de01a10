package graph

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/index"
)

// mkIndex builds an index from host -> entity postings.
func mkIndex(t *testing.T, postings map[string][]int, numEntities int) *index.Index {
	t.Helper()
	b := index.NewBuilder(entity.Restaurants, entity.AttrPhone, numEntities)
	for host, ids := range postings {
		for _, id := range ids {
			b.Add(host, id)
		}
	}
	return b.Build()
}

func TestFromIndexValidation(t *testing.T) {
	if _, err := FromIndex(&index.Index{NumEntities: 0}); err == nil {
		t.Error("zero universe should fail")
	}
	neg := &index.Index{NumEntities: 2, Sites: []index.Site{{Host: "h", Entities: []int{-1}}}}
	if _, err := FromIndex(neg); err == nil {
		t.Error("negative entity id should fail")
	}
	// IDs beyond NumEntities are legal (homepage/review denominators are
	// smaller than the ID space); the node space grows to fit.
	wide := &index.Index{NumEntities: 2, Sites: []index.Site{{Host: "h", Entities: []int{5}}}}
	g, err := FromIndex(wide)
	if err != nil {
		t.Fatalf("wide index: %v", err)
	}
	if g.NumEntities != 6 {
		t.Errorf("NumEntities = %d, want 6", g.NumEntities)
	}
}

func TestComponentsTwoIslands(t *testing.T) {
	// Island A: sites h0,h1 sharing entity 1; island B: site h2 with 3,4.
	idx := mkIndex(t, map[string][]int{
		"h0": {0, 1},
		"h1": {1, 2},
		"h2": {3, 4},
	}, 6)
	g, err := FromIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	c := g.AllComponents()
	if c.Count != 2 {
		t.Errorf("components = %d, want 2", c.Count)
	}
	if c.LargestEntities != 3 {
		t.Errorf("largest entities = %d, want 3", c.LargestEntities)
	}
	if c.TotalEntities != 5 { // entity 5 has no edges
		t.Errorf("total entities = %d, want 5", c.TotalEntities)
	}
	if got := c.FracEntitiesInLargest(); got != 0.6 {
		t.Errorf("frac largest = %v, want 0.6", got)
	}
}

func TestComponentsSingleGiant(t *testing.T) {
	idx := mkIndex(t, map[string][]int{
		"a": {0, 1}, "b": {1, 2}, "c": {2, 3}, "d": {3, 0},
	}, 4)
	g, _ := FromIndex(idx)
	c := g.AllComponents()
	if c.Count != 1 || c.FracEntitiesInLargest() != 1 {
		t.Errorf("giant: %+v", c)
	}
}

func TestAvgSitesPerEntity(t *testing.T) {
	idx := mkIndex(t, map[string][]int{
		"a": {0, 1}, "b": {0}, "c": {0},
	}, 10)
	g, _ := FromIndex(idx)
	// entity 0 on 3 sites, entity 1 on 1 site; isolated entities excluded.
	if got := g.AvgSitesPerEntity(); got != 2 {
		t.Errorf("avg = %v, want 2", got)
	}
}

func TestComponentsExcludingBridgeSite(t *testing.T) {
	// h0 bridges {0,1} and {2,3}; h1 covers {0,1}, h2 covers {2,3}.
	idx := mkIndex(t, map[string][]int{
		"h0": {0, 1, 2, 3},
		"h1": {0, 1},
		"h2": {2, 3},
	}, 4)
	g, _ := FromIndex(idx)
	full := g.AllComponents()
	if full.Count != 1 {
		t.Fatalf("full graph components = %d", full.Count)
	}
	// h0 is the largest site (rank 0); removing it splits the graph.
	c := g.ComponentsExcluding([]int{0})
	if c.Count != 2 {
		t.Errorf("after removal components = %d, want 2", c.Count)
	}
	if c.TotalEntities != 4 {
		t.Errorf("entities still connected = %d, want 4", c.TotalEntities)
	}
	if c.FracEntitiesInLargest() != 0.5 {
		t.Errorf("frac largest = %v, want 0.5", c.FracEntitiesInLargest())
	}
}

func TestComponentsExcludingOrphansEntities(t *testing.T) {
	// Entity 2 appears only on the top site: removing it drops entity 2
	// from the denominator.
	idx := mkIndex(t, map[string][]int{
		"big":   {0, 1, 2},
		"small": {0, 1},
	}, 3)
	g, _ := FromIndex(idx)
	c := g.ComponentsExcluding([]int{0})
	if c.TotalEntities != 2 {
		t.Errorf("total entities = %d, want 2", c.TotalEntities)
	}
	if c.FracEntitiesInLargest() != 1 {
		t.Errorf("frac = %v, want 1", c.FracEntitiesInLargest())
	}
}

func TestRobustnessCurveMonotoneSetup(t *testing.T) {
	rng := dist.NewRNG(3)
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, 300)
	// One giant site plus overlapping mid sites: removal should keep the
	// giant component mostly intact.
	for e := 0; e < 300; e++ {
		b.Add("giant.com", e)
	}
	for s := 0; s < 50; s++ {
		host := hostN(s)
		for j := 0; j < 30; j++ {
			b.Add(host, rng.Intn(300))
		}
	}
	idx := b.Build()
	g, _ := FromIndex(idx)
	curve := g.RobustnessCurve(5)
	if len(curve) != 6 {
		t.Fatalf("curve length = %d", len(curve))
	}
	if curve[0] != 1 {
		t.Errorf("k=0 frac = %v, want 1 (giant connects everything)", curve[0])
	}
	for k, v := range curve {
		if v < 0.9 {
			t.Errorf("k=%d frac = %v; overlapping sites should keep connectivity", k, v)
		}
	}
}

func hostN(i int) string {
	return string([]byte{'h', byte('a' + i/26), byte('a' + i%26)}) + ".com"
}

func TestHostAndDegree(t *testing.T) {
	idx := mkIndex(t, map[string][]int{"big": {0, 1}, "sm": {0}}, 2)
	g, _ := FromIndex(idx)
	if g.Host(0) != "big" || g.Host(1) != "sm" {
		t.Errorf("hosts = %q, %q", g.Host(0), g.Host(1))
	}
	if len(g.adj) != 4 {
		t.Errorf("len(adj) = %d", len(g.adj))
	}
	if len(g.adj[0]) != 2 { // entity 0 on both sites
		t.Errorf("degree(0) = %d", len(g.adj[0]))
	}
}

func TestComputeMetrics(t *testing.T) {
	idx := mkIndex(t, map[string][]int{
		"a": {0, 1}, "b": {1, 2}, "c": {3},
	}, 4)
	g, _ := FromIndex(idx)
	m := g.ComputeMetrics()
	if m.Components != 2 {
		t.Errorf("components = %d", m.Components)
	}
	if m.FracLargest != 0.75 {
		t.Errorf("frac largest = %v", m.FracLargest)
	}
	// Largest component path: e0 - a - e1 - b - e2 has diameter 4.
	if m.Diameter != 4 {
		t.Errorf("diameter = %d, want 4", m.Diameter)
	}
	if m.AvgSitesPerEntity <= 0 {
		t.Error("avg sites per entity not computed")
	}
}

func TestRobustnessCurveNegativeDepth(t *testing.T) {
	idx := mkIndex(t, map[string][]int{"a": {0, 1}, "b": {1, 2}}, 3)
	g, _ := FromIndex(idx)
	for _, maxK := range []int{-1, -2, -100} {
		if curve := g.RobustnessCurve(maxK); len(curve) != 0 {
			t.Errorf("RobustnessCurve(%d) = %v, want empty", maxK, curve)
		}
	}
	if curve := g.RobustnessCurve(0); len(curve) != 1 || curve[0] != 1 {
		t.Errorf("RobustnessCurve(0) = %v, want [1]", curve)
	}
}
