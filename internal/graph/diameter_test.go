package graph

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/index"
)

func TestDiameterPath(t *testing.T) {
	// Chain: e0 - s0 - e1 - s1 - e2 - s2 - e3 → diameter 6.
	idx := mkIndex(t, map[string][]int{
		"s0": {0, 1}, "s1": {1, 2}, "s2": {2, 3},
	}, 4)
	g, _ := FromIndex(idx)
	c := g.AllComponents()
	if d := g.DiameterLargest(c); d != 6 {
		t.Errorf("path diameter = %d, want 6", d)
	}
	if d := g.DiameterBrute(c); d != 6 {
		t.Errorf("brute diameter = %d, want 6", d)
	}
}

func TestDiameterStar(t *testing.T) {
	// One site covering everything: any entity to any entity is 2 hops.
	idx := mkIndex(t, map[string][]int{"hub": {0, 1, 2, 3, 4}}, 5)
	g, _ := FromIndex(idx)
	c := g.AllComponents()
	if d := g.DiameterLargest(c); d != 2 {
		t.Errorf("star diameter = %d, want 2", d)
	}
}

func TestDiameterSingleEdge(t *testing.T) {
	idx := mkIndex(t, map[string][]int{"s": {0}}, 1)
	g, _ := FromIndex(idx)
	c := g.AllComponents()
	if d := g.DiameterLargest(c); d != 1 {
		t.Errorf("single edge diameter = %d, want 1", d)
	}
}

func TestDiameterEmptyGraph(t *testing.T) {
	idx := &index.Index{NumEntities: 3}
	g, err := FromIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	c := g.AllComponents()
	if d := g.DiameterLargest(c); d != 0 {
		t.Errorf("empty diameter = %d, want 0", d)
	}
}

func TestIFUBMatchesBruteRandom(t *testing.T) {
	// iFUB must equal brute force on assorted random bipartite graphs,
	// including sparse ones with long chains.
	for seed := uint64(1); seed <= 12; seed++ {
		rng := dist.NewRNG(seed)
		nEnt := 30 + rng.Intn(60)
		nSites := 10 + rng.Intn(30)
		b := index.NewBuilder(entity.Banks, entity.AttrPhone, nEnt)
		for s := 0; s < nSites; s++ {
			host := hostN(s)
			size := 1 + rng.Intn(5)
			for j := 0; j < size; j++ {
				b.Add(host, rng.Intn(nEnt))
			}
		}
		g, err := FromIndex(b.Build())
		if err != nil {
			t.Fatal(err)
		}
		c := g.AllComponents()
		fast := g.DiameterLargest(c)
		brute := g.DiameterBrute(c)
		if fast != brute {
			t.Errorf("seed %d: iFUB %d != brute %d", seed, fast, brute)
		}
	}
}

func TestIFUBMatchesBruteDenser(t *testing.T) {
	rng := dist.NewRNG(77)
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, 200)
	for s := 0; s < 80; s++ {
		host := hostN(s)
		for j := 0; j < 2+rng.Intn(20); j++ {
			b.Add(host, rng.Intn(200))
		}
	}
	g, _ := FromIndex(b.Build())
	c := g.AllComponents()
	if fast, brute := g.DiameterLargest(c), g.DiameterBrute(c); fast != brute {
		t.Errorf("iFUB %d != brute %d", fast, brute)
	}
}

func TestEccentricity(t *testing.T) {
	idx := mkIndex(t, map[string][]int{
		"s0": {0, 1}, "s1": {1, 2},
	}, 3)
	g, _ := FromIndex(idx)
	// e0 ecc: e0-s0-e1-s1-e2 = 4.
	if ecc := g.Eccentricity(0); ecc != 4 {
		t.Errorf("ecc(e0) = %d, want 4", ecc)
	}
	// e1 is the center: ecc 2.
	if ecc := g.Eccentricity(1); ecc != 2 {
		t.Errorf("ecc(e1) = %d, want 2", ecc)
	}
	if ecc := g.Eccentricity(-1); ecc != -1 {
		t.Errorf("ecc(-1) = %d", ecc)
	}
}

func TestDiameterEvenForBipartiteEntityPairs(t *testing.T) {
	// In a bipartite entity-site graph every entity-entity distance is
	// even; the diameter endpoints may be entity-site (odd). Sanity-check
	// iFUB on a two-hub graph: hubs share one entity.
	idx := mkIndex(t, map[string][]int{
		"hub1": {0, 1, 2},
		"hub2": {2, 3, 4},
	}, 5)
	g, _ := FromIndex(idx)
	c := g.AllComponents()
	// e0 -> hub1 -> e2 -> hub2 -> e3: 4.
	if d := g.DiameterLargest(c); d != 4 {
		t.Errorf("two-hub diameter = %d, want 4", d)
	}
}

// TestSweepEveryLane: each of the 64 lanes carries its own search. On a
// 23-node path, lane j starts at an end (eccentricity 22) while every
// other lane starts at the middle, so a lane mixed into another or
// dropped returns less than 22.
func TestSweepEveryLane(t *testing.T) {
	postings := map[string][]int{}
	for i := 0; i < 11; i++ {
		postings[hostN(i)] = []int{i, i + 1}
	}
	g, _ := FromIndex(mkIndex(t, postings, 12))
	comp := make([]int32, g.NumNodes())
	for v := range comp {
		comp[v] = int32(v)
	}
	n := g.NumNodes()
	seen, frontier, next := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	sources := make([]int32, 64)
	for j := range sources {
		for i := range sources {
			sources[i] = 6 // middle entity
		}
		sources[j] = 0 // end entity
		if got := g.sweep(comp, sources, seen, frontier, next); got != 22 {
			t.Errorf("end node on lane %d: sweep = %d, want 22", j, got)
		}
	}
}

// TestSweepZeroAlloc pins the bit-parallel kernel: one 64-lane sweep
// allocates nothing and returns the largest eccentricity of its sources.
func TestSweepZeroAlloc(t *testing.T) {
	g := hubGraph(1)
	c := g.AllComponents()
	var comp []int32
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) > 0 && c.InLargest(v) {
			comp = append(comp, int32(v))
		}
	}
	sources := comp[len(comp)-64:]
	want := 0
	for _, s := range sources {
		want = max(want, g.Eccentricity(int(s)))
	}
	n := g.NumNodes()
	seen, frontier, next := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	if got := g.sweep(comp, sources, seen, frontier, next); got != want {
		t.Fatalf("sweep = %d, want max source eccentricity %d", got, want)
	}
	if allocs := testing.AllocsPerRun(50, func() { g.sweep(comp, sources, seen, frontier, next) }); allocs != 0 {
		t.Fatalf("sweep allocates %v/op, want 0", allocs)
	}
}
