package graph

// Diameter computation. The paper computes exact diameters by running a
// BFS from every node (§5.2). We implement iFUB (iterative Fringe Upper
// Bound, Crescenzi et al., TCS 2013), which computes the EXACT diameter
// from one BFS at a high-degree start node, one more from the farthest
// node it reached (the double sweep of Magnien, Latapy and Habib, ACM
// JEA 2009, which seeds the lower bound), and one BFS per node of the
// deepest fringes until its stop rule fires. Without the double sweep,
// graphs whose start node has eccentricity 4 and whose diameter is 8
// swept most of their fringe before a rare eccentricity-8 node turned
// up: 516–1,015 fringe nodes per study at small scale (seeds 1–3) and
// 22,063 at default scale (seed 1). With it, Table 2's 17 graphs take
// 25–44 fringe BFSs per study at small scale (seeds 1–3), 59–89 at
// default scale (seeds 1, 3, 42) and 50 at large scale (seed 1), at
// most 25 on any one graph.
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
func (g *Bipartite) DiameterLargest(c Components) int {
	d, _ := g.ifub(c)
	return d
}

// ifub computes DiameterLargest and counts the fringe BFSs it ran.
//
// iFUB starts at the component's highest-degree node (lowest id on
// ties) and levels the component by BFS from it. The double sweep runs
// one more BFS from the last node that BFS reached, a deepest one, and
// its eccentricity is the first lower bound lb. The levels are then
// swept from the deepest inward, one BFS per fringe node. lb only ever
// takes real eccentricities, and any two nodes at levels <= i are
// within 2i of each other through the start node, so once 2i <= lb no
// unswept node can raise it: lb is then the exact diameter.
func (g *Bipartite) ifub(c Components) (diam, fringeBFS int) {
	start := -1
	for v := range g.adj {
		if len(g.adj[v]) > 0 && c.InLargest(v) && (start < 0 || len(g.adj[v]) > len(g.adj[start])) {
			start = v
		}
	}
	if start < 0 {
		return 0, 0
	}
	n := len(g.adj)
	level := make([]int32, n)
	dist := make([]int32, n)
	for i := range level {
		level[i], dist[i] = -1, -1
	}
	depth, comp := bfs(g.adj, start, level, make([]int32, 0, n))
	// dist and queue are the scratch of the double sweep and of every
	// fringe BFS; each resets dist over the nodes it visited.
	queue := make([]int32, 0, len(comp))
	ecc := func(src int32) int {
		e, visited := bfs(g.adj, int(src), dist, queue)
		for _, v := range visited {
			dist[v] = -1
		}
		return e
	}
	lb := ecc(comp[len(comp)-1])
	// comp is in BFS order, so level i is the run comp[lo:hi] with
	// level == i; walk the runs from the end, skipping comp's last node,
	// which the double sweep already swept.
	hi := len(comp) - 1
	for i := depth; i > 0 && 2*i > lb; i-- {
		lo := hi
		for lo > 0 && int(level[comp[lo-1]]) == i {
			lo--
		}
		for j := lo; j < hi && 2*i > lb; j++ {
			lb = max(lb, ecc(comp[j]))
			fringeBFS++
		}
		hi = lo
	}
	return lb, fringeBFS
}

// DiameterBrute computes the diameter of the largest component by
// running a BFS from every node in it — the paper's method, kept as the
// correctness oracle for DiameterLargest.
//
//repro:testonly-ok core's TestGraphAnalysesMatchOraclesAcrossSeeds and the root bench_test.go ablation
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
