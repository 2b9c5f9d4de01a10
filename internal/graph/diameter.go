package graph

// Diameter computation. The paper computes exact diameters by running a
// BFS from every node (§5.2). We implement iFUB (iterative Fringe Upper
// Bound, Crescenzi et al., TCS 2013), which computes the EXACT diameter
// from one BFS at a high-degree start node plus one BFS per node of the
// deepest fringes until its stop rule fires. The fringes are not always
// small: at small scale (seeds 1–3, ~6,700-node phone graphs) most
// graphs stop within a few fringe nodes, but those whose start node has
// eccentricity 4 need 405–526 single-source sweeps each, 516–1,015 per
// study over Table 2's 17 graphs. The fringe sweeps therefore run
// bit-parallel (multi-source BFS, Then et al., PVLDB 2014): up to 64
// fringe nodes share one traversal, each owning one bit lane of three
// uint64 words per node (seen, frontier, next), so one pass over the
// adjacency advances all 64 searches by a level. That cuts the same
// studies to 7–9 sweeps on those graphs and 25–34 per study.
// DiameterBrute, a BFS from every node, is the test oracle.

// bfs runs a breadth-first traversal from src, writing distances into
// dist (which must be len(adj) and pre-filled with -1). It returns the
// eccentricity of src within its component and the visited nodes in
// BFS order (so by nondecreasing distance).
func bfs(adj [][]int32, src int, dist []int32, queue []int32) (ecc int, visited []int32) {
	dist[src] = 0
	queue = queue[:0]
	queue = append(queue, int32(src))
	head := 0
	for head < len(queue) {
		v := queue[head]
		head++
		dv := dist[v]
		if int(dv) > ecc {
			ecc = int(dv)
		}
		for _, u := range adj[v] {
			if dist[u] < 0 {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
	return ecc, queue
}

// DiameterLargest returns the exact diameter of the largest connected
// component (0 for an empty or single-node component). The Components
// argument must come from AllComponents on the same graph.
//
// iFUB starts at the component's highest-degree node (lowest id on
// ties), levels the component by BFS from it, and sweeps the levels
// from the deepest inward, 64 fringe nodes per bit-parallel sweep.
// The lower bound lb only ever takes real eccentricities, and any two
// nodes at levels <= i are within 2i of each other through the start
// node, so once 2i <= lb no unswept node can raise it: lb is then the
// exact diameter whatever the batch composition.
func (g *Bipartite) DiameterLargest(c Components) int {
	start := -1
	for v := range g.adj {
		if len(g.adj[v]) > 0 && c.InLargest(v) && (start < 0 || len(g.adj[v]) > len(g.adj[start])) {
			start = v
		}
	}
	if start < 0 {
		return 0
	}
	n := len(g.adj)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	lb, comp := bfs(g.adj, start, dist, make([]int32, 0, n))
	seen := make([]uint64, n)
	frontier := make([]uint64, n)
	next := make([]uint64, n)
	// comp is in BFS order, so level i is the run comp[lo:hi] with
	// dist == i; walk the runs from the end.
	hi := len(comp)
	for i := lb; i > 0 && 2*i > lb; i-- {
		lo := hi
		for lo > 0 && int(dist[comp[lo-1]]) == i {
			lo--
		}
		for b := lo; b < hi && 2*i > lb; b += 64 {
			if ecc := g.sweep(comp, comp[b:min(b+64, hi)], seen, frontier, next); ecc > lb {
				lb = ecc
			}
		}
		hi = lo
	}
	return lb
}

// sweep runs one multi-source BFS over the component comp from up to 64
// sources, source j owning bit lane j, and returns the largest
// eccentricity among them: the last level at which any lane newly
// reaches a node. seen, frontier and next are per-node lane words of
// len(g.adj); sweep clears them over comp before use.
//
//repro:noalloc
func (g *Bipartite) sweep(comp, sources []int32, seen, frontier, next []uint64) int {
	for _, v := range comp {
		seen[v], frontier[v], next[v] = 0, 0, 0
	}
	for j, s := range sources {
		seen[s] |= 1 << j
		frontier[s] |= 1 << j
	}
	full := ^uint64(0) >> (64 - len(sources))
	ecc := 0
	for level := 1; ; level++ {
		for _, v := range comp {
			if f := frontier[v]; f != 0 {
				for _, u := range g.adj[v] {
					next[u] |= f
				}
			}
		}
		var grew uint64
		done := true
		for _, v := range comp {
			nv := next[v] &^ seen[v]
			next[v] = 0
			frontier[v] = nv
			seen[v] |= nv
			grew |= nv
			done = done && seen[v] == full
		}
		if grew != 0 {
			ecc = level
		}
		// done: every lane has covered the component; grew == 0 also
		// ends a comp that misses part of a source's component.
		if done || grew == 0 {
			return ecc
		}
	}
}

// DiameterBrute computes the diameter of the largest component by
// running a BFS from every node in it — the paper's method, kept as the
// correctness oracle for DiameterLargest.
func (g *Bipartite) DiameterBrute(c Components) int {
	n := len(g.adj)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	max := 0
	for v := 0; v < n; v++ {
		if len(g.adj[v]) == 0 || !c.InLargest(v) {
			continue
		}
		ecc, touched := bfs(g.adj, v, dist, queue)
		if ecc > max {
			max = ecc
		}
		for _, u := range touched {
			dist[u] = -1
		}
	}
	return max
}

// Eccentricity returns the BFS eccentricity of node v within its
// component, or -1 if v has no edges.
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
