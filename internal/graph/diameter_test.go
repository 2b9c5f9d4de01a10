package graph

import (
	"slices"
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

// Eccentricity returns the BFS eccentricity of node v within its
// component, or -1 if v has no edges: the single-node oracle the
// diameter tests compare against.
func (g *Bipartite) Eccentricity(v int) int {
	if v < 0 || v >= len(g.adj) || len(g.adj[v]) == 0 {
		return -1
	}
	dist := make([]int32, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	ecc, _ := bfs(g.adj, v, dist, nil)
	return ecc
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

// TestDoubleSweepFindsRareDiameter: a graph whose start node has
// eccentricity 4 and whose diameter 8 is reached only from the last two
// of its deepest fringe nodes. Hub site H lists arm roots a1 and b1 and
// m pendant entities, so it has the top degree. The arms run
// H–a1–A2–a3–Z and H–b1–B2–b3–W, and Z and W are 8 apart. Bridge sites
// U1..Um each list a3' (on A2) and b3' (on B2): they sit at level 4 too,
// 4 from both Z and W, so their eccentricity is 5. Level 3 is visited as
// a3', a3, b3', b3, so level 4 is U1..Um, Z, W. Without the double sweep
// iFUB would sweep m+1 fringe nodes before reaching Z; with it, the BFS
// from W sets lb = 8 = 2·4 and no fringe BFS runs.
func TestDoubleSweepFindsRareDiameter(t *testing.T) {
	const m = 100
	a1, b1, a3x, a3, b3x, b3 := 0, 1, m+2, m+3, m+4, m+5
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, m+6)
	for e := 0; e < m+2; e++ {
		b.Add("h", e) // a1, b1 and the pendants 2..m+1
	}
	for _, e := range []int{a1, a3x, a3} {
		b.Add("a2", e)
	}
	for _, e := range []int{b1, b3x, b3} {
		b.Add("b2", e)
	}
	b.Add("z", a3)
	b.Add("w", b3)
	for k := 0; k < m; k++ {
		b.Add(hostN(k), a3x)
		b.Add(hostN(k), b3x)
	}
	g, err := FromIndex(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	c := g.AllComponents()
	start := g.siteOrder[0]
	for v := 0; v < len(g.adj); v++ {
		if v != start && len(g.adj[v]) >= len(g.adj[start]) {
			t.Fatalf("node %d ties or beats the hub as start", v)
		}
	}
	level := make([]int32, len(g.adj))
	for i := range level {
		level[i] = -1
	}
	depth, comp := bfs(g.adj, start, level, nil)
	var deepest, widest []int32
	for _, v := range comp {
		if int(level[v]) == depth {
			deepest = append(deepest, v)
			if g.Eccentricity(int(v)) == 8 {
				widest = append(widest, v)
			}
		}
	}
	if depth != 4 || len(deepest) != m+2 || !slices.Equal(widest, deepest[m:]) {
		t.Fatalf("start eccentricity %d, %d level-%d nodes, those of eccentricity 8 %v; want 4, %d, the last two %v",
			depth, len(deepest), depth, widest, m+2, deepest[m:])
	}
	diam, fringe := g.ifub(c)
	if brute := g.DiameterBrute(c); diam != 8 || brute != 8 {
		t.Errorf("iFUB %d, brute %d, want 8", diam, brute)
	}
	if fringe != 0 {
		t.Errorf("%d fringe BFSs, want 0: the double sweep already reaches the diameter", fringe)
	}
}
