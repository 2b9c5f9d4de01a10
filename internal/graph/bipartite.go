// Package graph implements the §5 connectivity analysis of the
// entity–website bipartite graph: connected components and their sizes
// (via union-find), exact graph diameter (via iFUB seeded by a double
// sweep — see diameter.go), and the robustness of the largest component
// when the top-k sites are removed (Figure 9, built in one reverse
// union-find pass).
//
// The paper reads these numbers as bounds on bootstrapping discovery
// (set expansion in the style of Flint or KnowItAll: from seed
// entities, adopt every site that lists one, then every entity those
// sites list, to a fixed point). Each bound follows from what Table 2
// already reports, so none needs an expansion simulator:
//
//   - an expansion from a seed set is a BFS from it, and reaches
//     exactly the seeds' components;
//   - one round is two BFS levels, so the fixed point comes within
//     ⌈d/2⌉ rounds of a seed in a component of diameter d;
//   - s seeds drawn uniformly from the connected entities all miss the
//     largest component with probability (1 − FracLargest)^s.
package graph

import (
	"fmt"

	"repro/internal/index"
)

// Bipartite is the entity–website graph for one (domain, attribute):
// nodes 0..NumEntities-1 are entities, NumEntities..NumEntities+S-1 are
// sites; an edge joins entity e and site s when s mentions e.
type Bipartite struct {
	NumEntities int
	NumSites    int
	// adj is the adjacency list over all nodes (entities then sites).
	// Entities with no edges have empty lists and are excluded from the
	// analysis denominators.
	adj [][]int32
	// siteOrder maps rank (0 = largest) to site node offsets, for
	// robustness removal.
	siteOrder []int
	hosts     []string
}

// FromIndex builds the bipartite graph of an index. Site ordering
// follows the index's size-descending order. The entity node space is
// sized by the largest entity ID present (the index's NumEntities is a
// coverage denominator and may be smaller, e.g. for the homepage
// attribute whose universe is entities-with-homepage).
// Adjacency is counted, then filled into one array, sites by rank with
// entities ascending: each entity lists its sites by rank.
func FromIndex(idx *index.Index) (*Bipartite, error) {
	if idx.NumEntities <= 0 {
		return nil, fmt.Errorf("graph: index has no entity universe")
	}
	bound, err := idx.EntityBound()
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	numEntities := max(idx.NumEntities, bound)
	g := &Bipartite{
		NumEntities: numEntities,
		NumSites:    len(idx.Sites),
		adj:         make([][]int32, numEntities+len(idx.Sites)),
		siteOrder:   make([]int, len(idx.Sites)),
		hosts:       make([]string, len(idx.Sites)),
	}
	deg := make([]int, len(g.adj))
	for si := range idx.Sites {
		deg[numEntities+si] = len(idx.Sites[si].Entities)
		for _, e := range idx.Sites[si].Entities {
			deg[e]++
		}
	}
	backing := make([]int32, 2*idx.TotalPostings())
	off := 0
	for v, d := range deg {
		g.adj[v] = backing[off : off : off+d]
		off += d
	}
	for si := range idx.Sites {
		node := numEntities + si
		g.siteOrder[si] = node
		g.hosts[si] = idx.Sites[si].Host
		for _, e := range idx.Sites[si].Entities {
			g.adj[node] = append(g.adj[node], int32(e))
			g.adj[e] = append(g.adj[e], int32(node))
		}
	}
	return g, nil
}

// AvgSitesPerEntity returns the mean entity degree over entities with
// at least one edge (Table 2 column 1).
func (g *Bipartite) AvgSitesPerEntity() float64 {
	total, n := 0, 0
	for e := 0; e < g.NumEntities; e++ {
		if d := len(g.adj[e]); d > 0 {
			total += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// Components summarizes the connected-component structure.
type Components struct {
	// Count is the number of components containing at least one entity.
	Count int
	// LargestEntities is the number of entities in the largest
	// component (largest by entity count).
	LargestEntities int
	// TotalEntities is the number of entities with at least one edge.
	TotalEntities int
	// LargestID is the union-find root of the largest component.
	LargestID int
	roots     []int32
}

// FracEntitiesInLargest is Table 2's "% entities in largest comp"
// (as a fraction of connected entities).
func (c Components) FracEntitiesInLargest() float64 {
	if c.TotalEntities == 0 {
		return 0
	}
	return float64(c.LargestEntities) / float64(c.TotalEntities)
}

// InLargest reports whether node v is in the largest component.
func (c Components) InLargest(v int) bool {
	return c.roots != nil && int(c.roots[v]) == c.LargestID
}

// ComponentsExcluding computes connected components with the given site
// ranks removed (nil removes nothing). Removal of rank r removes the
// r-th largest site and all its edges.
func (g *Bipartite) ComponentsExcluding(removedRanks []int) Components {
	removed := make([]bool, len(g.adj))
	for _, r := range removedRanks {
		if r >= 0 && r < len(g.siteOrder) {
			removed[g.siteOrder[r]] = true
		}
	}
	// Every edge joins an entity to a site, so the entity side sees each
	// present edge once.
	uf := newUnionFind(len(g.adj))
	for e := 0; e < g.NumEntities; e++ {
		for _, s := range g.adj[e] {
			if !removed[s] {
				uf.union(e, int(s))
			}
		}
	}
	// Tally entities per root.
	perRoot := make([]int32, len(g.adj))
	total := 0
	roots := make([]int32, len(g.adj))
	for v := range g.adj {
		roots[v] = int32(uf.find(v))
	}
	for e := 0; e < g.NumEntities; e++ {
		// An entity is connected when a present site joined it to a set.
		if uf.size[roots[e]] > 1 {
			total++
			perRoot[roots[e]]++
		}
	}
	out := Components{TotalEntities: total, roots: roots, LargestID: -1}
	for root, n := range perRoot {
		if n == 0 {
			continue
		}
		out.Count++
		if int(n) > out.LargestEntities { // ascending roots: ties keep the lowest
			out.LargestEntities = int(n)
			out.LargestID = root
		}
	}
	return out
}

// AllComponents computes the component structure of the full graph.
func (g *Bipartite) AllComponents() Components {
	return g.ComponentsExcluding(nil)
}

// RobustnessCurve returns, for k = 0..maxK, the fraction of connected
// entities that remain in the largest component after removing the top
// k sites (Figure 9); it is empty for maxK < 0. The denominator is the
// entity count still connected after removal, matching the paper's
// "fraction of structured entities in the largest component".
//
// The curve is built offline in reverse: remove the top
// min(maxK, NumSites) sites, union the remaining edges once, then
// re-insert the removed sites from the smallest rank up, keeping the
// connected-entity count of every root. Re-insertion only merges
// components, so the largest count only grows. Each point equals
// ComponentsExcluding(ranks 0..k-1).FracEntitiesInLargest() exactly.
func (g *Bipartite) RobustnessCurve(maxK int) []float64 {
	if maxK < 0 {
		return []float64{}
	}
	m := min(maxK, g.NumSites)
	removed := make([]bool, len(g.adj))
	for _, s := range g.siteOrder[:m] {
		removed[s] = true
	}
	uf := newUnionFind(len(g.adj))
	// count[root] is the number of connected entities in root's
	// component; an entity is connected once any present site lists it.
	count := make([]int32, len(g.adj))
	total, largest := 0, int32(0)
	join := func(s, e int) {
		if re := uf.find(e); uf.size[re] == 1 {
			count[re] = 1 // e's first present site: e joins the denominator
			total++
		}
		if root, child := uf.union(s, e); root != child {
			count[root] += count[child]
			largest = max(largest, count[root])
		}
	}
	for _, s := range g.siteOrder[m:] {
		for _, e := range g.adj[s] {
			join(s, int(e))
		}
	}
	out := make([]float64, maxK+1)
	frac := func() float64 {
		if total == 0 {
			return 0
		}
		return float64(largest) / float64(total)
	}
	for k := m; k <= maxK; k++ {
		out[k] = frac()
	}
	for k := m - 1; k >= 0; k-- {
		s := g.siteOrder[k]
		for _, e := range g.adj[s] {
			join(s, int(e))
		}
		out[k] = frac()
	}
	return out
}

// unionFind is a weighted quick-union with path halving.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(v int) int {
	for int(uf.parent[v]) != v {
		uf.parent[v] = uf.parent[uf.parent[v]] // path halving
		v = int(uf.parent[v])
	}
	return v
}

// union merges the sets of a and b and returns the surviving root and
// the absorbed one (equal when a and b were already joined).
func (uf *unionFind) union(a, b int) (root, child int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return ra, rb
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = int32(ra)
	uf.size[ra] += uf.size[rb]
	return ra, rb
}

// Metrics bundles the Table 2 row for one (domain, attribute) graph.
type Metrics struct {
	AvgSitesPerEntity float64
	Diameter          int
	Components        int
	FracLargest       float64
}

// ComputeMetrics produces the Table 2 row: average sites per entity,
// exact diameter of the largest component, component count, and the
// fraction of entities in the largest component.
func (g *Bipartite) ComputeMetrics() Metrics {
	c := g.AllComponents()
	return Metrics{
		AvgSitesPerEntity: g.AvgSitesPerEntity(),
		Diameter:          g.DiameterLargest(c),
		Components:        c.Count,
		FracLargest:       c.FracEntitiesInLargest(),
	}
}
