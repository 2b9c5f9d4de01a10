package coverage

import (
	"container/heap"
	"fmt"

	"repro/internal/index"
)

// GreedySetCover runs the classic greedy set-cover approximation over
// the index's sites (§3.4.1): at each step pick the site covering the
// most not-yet-covered entities. It uses the lazy-greedy optimization —
// marginal gains only shrink as coverage grows (submodularity), so a
// stale heap entry whose recomputed gain still tops the heap is truly
// the best choice. Returns the chosen site order (indices into
// idx.Sites) and the cumulative number of covered entities after each
// pick. maxSites <= 0 means run to full coverage or site exhaustion.
func GreedySetCover(idx *index.Index, maxSites int) (order []int, covered []int, err error) {
	if idx.NumEntities <= 0 {
		return nil, nil, fmt.Errorf("coverage: index has no entity universe")
	}
	if maxSites <= 0 || maxSites > len(idx.Sites) {
		maxSites = len(idx.Sites)
	}
	bound, err := idx.EntityBound()
	if err != nil {
		return nil, nil, fmt.Errorf("coverage: %w", err)
	}
	h := make(gainHeap, len(idx.Sites))
	for i := range idx.Sites {
		h[i] = gainEntry{site: i, gain: len(idx.Sites[i].Entities), stamp: 0}
	}
	heap.Init(&h)

	isCovered := make([]bool, bound)
	cum := 0
	step := 1
	for len(order) < maxSites && h.Len() > 0 {
		top := heap.Pop(&h).(gainEntry)
		if top.stamp != step {
			// Stale gain: recompute against the current cover.
			g := 0
			for _, e := range idx.Sites[top.site].Entities {
				if !isCovered[e] {
					g++
				}
			}
			top.gain = g
			top.stamp = step
			if h.Len() > 0 && h[0].gain > g {
				heap.Push(&h, top)
				continue
			}
		}
		if top.gain == 0 {
			break // nothing left to gain from any site
		}
		for _, e := range idx.Sites[top.site].Entities {
			if !isCovered[e] {
				isCovered[e] = true
				cum++
			}
		}
		order = append(order, top.site)
		covered = append(covered, cum)
		step++
	}
	return order, covered, nil
}

type gainEntry struct {
	site  int
	gain  int
	stamp int
}

type gainHeap []gainEntry

func (h gainHeap) Len() int            { return len(h) }
func (h gainHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h gainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x interface{}) { *h = append(*h, x.(gainEntry)) }
func (h *gainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// CoverageOfGreedy converts a cumulative covered count into a coverage
// curve sampled at tPoints, for overlaying against the size-order curve
// in Figure 5.
func CoverageOfGreedy(idx *index.Index, covered []int, tPoints []int) Curve {
	c := Curve{K: 1}
	n := float64(idx.NumEntities)
	for _, t := range tPoints {
		var v float64
		switch {
		case len(covered) == 0:
			v = 0
		case t <= len(covered):
			v = float64(covered[t-1]) / n
		default:
			v = float64(covered[len(covered)-1]) / n
		}
		c.T = append(c.T, t)
		c.Coverage = append(c.Coverage, v)
	}
	return c
}
