package stats

import (
	"fmt"
	"math"
	"sort"
)

// ZipfExponentFromRanks estimates the rank-frequency Zipf exponent s of
// a demand vector by least-squares on log(freq) vs log(rank) over the
// top `ranks` entries (freq ∝ rank^-s): the head decay the Figure
// 6(b/d) log-log plots display.
func ZipfExponentFromRanks(xs []float64, ranks int) (float64, error) {
	if ranks < 2 {
		return 0, fmt.Errorf("stats: need ranks >= 2, got %d", ranks)
	}
	sorted := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	if len(sorted) < ranks {
		ranks = len(sorted)
	}
	var n int
	var sx, sy, sxx, sxy float64
	for i := 0; i < ranks; i++ {
		if sorted[i] <= 0 {
			break
		}
		x := math.Log(float64(i + 1))
		y := math.Log(sorted[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return 0, fmt.Errorf("stats: fewer than 2 positive ranks")
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("stats: degenerate rank regression")
	}
	slope := (float64(n)*sxy - sx*sy) / den
	return -slope, nil
}
