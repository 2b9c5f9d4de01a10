package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/index"
)

func randomGraph(seed uint64) *Bipartite {
	rng := dist.NewRNG(seed)
	n := 20 + rng.Intn(100)
	sites := 5 + rng.Intn(35)
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, n)
	for s := 0; s < sites; s++ {
		host := hostN(s)
		for j := 0; j < 1+rng.Intn(8); j++ {
			b.Add(host, rng.Intn(n))
		}
	}
	g, err := FromIndex(b.Build())
	if err != nil {
		panic(err)
	}
	return g
}

// hubGraph builds a hub-heavy random bipartite graph whose iFUB fringe
// is large and swept in full. Hub site 0 lists every core entity, more
// than any other site, so it is the start node (site rank 0); 1–3 more
// hubs share the core. Core entity 0 anchors 2–4 bridge sites that
// carry the tail entities, and 70–189 leaf sites each list one or two
// tails of one bridge. The leaf count is never a multiple of 64, a
// shape kept from when the fringe was swept in 64-node batches. From
// hub 0 the leaves are level 4, tails 3, bridges 2. All deep nodes hang
// off one core entity, so no two are more than 6 apart and the stop
// rule (2i <= lb) cannot fire inside the leaf level, whatever the
// double sweep finds: every leaf gets its own BFS. 2–4 small islands
// keep the graph disconnected.
func hubGraph(seed uint64) *Bipartite {
	rng := dist.NewRNG(seed)
	core := 150 + rng.Intn(50)
	leaves := 70 + rng.Intn(120)
	if leaves%64 == 0 {
		leaves++
	}
	tails := leaves + rng.Intn(40)
	hubs := 2 + rng.Intn(3)
	bridges := 2 + rng.Intn(3)
	islands := 2 + rng.Intn(3)
	n := core + tails + 4*islands
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, n)
	site := 0
	newSite := func() string { site++; return hostN(site - 1) }
	for h := 0; h < hubs; h++ {
		host := newSite()
		for e := 0; e < core; e++ {
			if h == 0 || rng.Intn(2) == 0 {
				b.Add(host, e)
			}
		}
	}
	bridgeHosts := make([]string, bridges)
	for i := range bridgeHosts {
		bridgeHosts[i] = newSite()
		b.Add(bridgeHosts[i], 0)
	}
	tail := func(j int) int { return core + j }
	for j := 0; j < tails; j++ {
		b.Add(bridgeHosts[j%bridges], tail(j))
		if rng.Intn(10) == 0 {
			b.Add(bridgeHosts[rng.Intn(bridges)], tail(j))
		}
	}
	for j := 0; j < leaves; j++ {
		host := newSite()
		b.Add(host, tail(j))
		if other := j + bridges; other < tails && rng.Intn(5) == 0 {
			b.Add(host, tail(other)) // same bridge: j ≡ other mod bridges
		}
	}
	for i := 0; i < islands; i++ {
		host, base := newSite(), core+tails+4*i
		for e := 0; e < 2+rng.Intn(3); e++ {
			b.Add(host, base+e)
		}
	}
	g, err := FromIndex(b.Build())
	if err != nil {
		panic(err)
	}
	return g
}

// TestPropertyHubGraphDiameter: on hub-heavy graphs iFUB runs one BFS
// per node of a deepest fringe of more than 64 nodes and still equals
// the brute-force diameter of the largest of several components.
func TestPropertyHubGraphDiameter(t *testing.T) {
	f := func(seed uint64) bool {
		g := hubGraph(seed)
		c := g.AllComponents()
		start := g.siteOrder[0]
		for v := 0; v < g.NumNodes(); v++ {
			if g.Degree(v) >= g.Degree(start) && v != start {
				t.Logf("seed %d: node %d ties or beats hub 0 as start", seed, v)
				return false
			}
		}
		level := make([]int32, g.NumNodes())
		for i := range level {
			level[i] = -1
		}
		ecc, comp := bfs(g.adj, start, level, nil)
		fringe := 0
		for _, v := range comp {
			if int(level[v]) == ecc {
				fringe++
			}
		}
		brute := g.DiameterBrute(c)
		// brute < 2*ecc: the stop rule cannot fire inside the deepest
		// level, so every node of it is swept.
		if c.Count < 2 || fringe <= 64 || fringe%64 == 0 || brute >= 2*ecc {
			t.Logf("seed %d: %d components, fringe %d, diameter %d, start eccentricity %d", seed, c.Count, fringe, brute, ecc)
			return false
		}
		if d := g.DiameterLargest(c); d != brute {
			t.Logf("seed %d: iFUB %d != brute %d", seed, d, brute)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRobustnessCurveMatchesOracle: every point of the one-pass
// curve equals the from-scratch component count with the top k sites
// removed, including depths past the last site.
func TestPropertyRobustnessCurveMatchesOracle(t *testing.T) {
	f := func(seed uint64, hub bool) bool {
		g := randomGraph(seed)
		if hub {
			g = hubGraph(seed)
		}
		maxK := g.NumSites + 2
		curve := g.RobustnessCurve(maxK)
		if len(curve) != maxK+1 {
			return false
		}
		ranks := make([]int, maxK)
		for k := range ranks {
			ranks[k] = k
		}
		for k := 0; k <= maxK; k++ {
			if want := g.ComponentsExcluding(ranks[:k]).FracEntitiesInLargest(); curve[k] != want {
				t.Logf("seed %d hub %v: curve[%d] = %v, want %v", seed, hub, k, curve[k], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRobustnessCurveInRange: every robustness value is a valid
// fraction and k=0 equals the full-graph largest share.
func TestPropertyRobustnessCurveInRange(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		curve := g.RobustnessCurve(5)
		if len(curve) != 6 {
			return false
		}
		full := g.AllComponents().FracEntitiesInLargest()
		if curve[0] != full {
			return false
		}
		for _, v := range curve {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRemovalShrinksConnectedSet: removing sites never grows
// the set of connected entities.
func TestPropertyRemovalShrinksConnectedSet(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		prev := g.ComponentsExcluding(nil).TotalEntities
		ranks := []int{}
		for k := 0; k < 5; k++ {
			ranks = append(ranks, k)
			cur := g.ComponentsExcluding(ranks).TotalEntities
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyComponentEntitiesSumToTotal: entity counts across
// components partition the connected entities.
func TestPropertyComponentEntitiesSumToTotal(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		c := g.AllComponents()
		// Largest component never exceeds the total.
		if c.LargestEntities > c.TotalEntities {
			return false
		}
		// Count components implies at least one entity each.
		return c.Count <= c.TotalEntities
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDiameterAtLeastAnyEccentricity: the diameter is the max
// eccentricity, so any sampled node's eccentricity bounds it below.
func TestPropertyDiameterAtLeastAnyEccentricity(t *testing.T) {
	f := func(seed uint64, probe uint8) bool {
		g := randomGraph(seed)
		c := g.AllComponents()
		d := g.DiameterLargest(c)
		v := int(probe) % g.NumNodes()
		if len(g.adj[v]) == 0 || !c.InLargest(v) {
			return true
		}
		return g.Eccentricity(v) <= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFromIndexMatchesAppendOracle: the count-then-fill
// adjacency gives every node the degree and neighbour order of the
// per-edge append it replaced (sites by rank, entities ascending), the
// order iFUB's tie-breaks depend on. Some indexes carry ids past
// NumEntities, as the homepage attribute's do.
func TestPropertyFromIndexMatchesAppendOracle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dist.NewRNG(seed)
		n := 1 + rng.Intn(60)
		b := index.NewBuilder(entity.Banks, entity.AttrHomepage, 1+rng.Intn(n))
		for s := rng.Intn(30); s > 0; s-- {
			host := hostN(rng.Intn(40))
			for j := rng.Intn(10); j > 0; j-- {
				b.Add(host, rng.Intn(n))
			}
			b.AddPage(host) // page-only sites are isolated nodes
		}
		idx := b.Build()
		g, err := FromIndex(idx)
		if err != nil {
			return false
		}
		want := make([][]int32, g.NumEntities+len(idx.Sites))
		for si := range idx.Sites {
			node := g.NumEntities + si
			for _, e := range idx.Sites[si].Entities {
				want[node] = append(want[node], int32(e))
				want[e] = append(want[e], int32(node))
			}
		}
		if len(g.adj) != len(want) {
			return false
		}
		for v := range want {
			if g.Degree(v) != len(want[v]) || !slices.Equal(g.adj[v], want[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
