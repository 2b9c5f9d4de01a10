package dist

import (
	"fmt"
	"math"
)

// Alias is a Walker/Vose alias table: O(n) construction, O(1) sampling
// from an arbitrary discrete distribution. It is immutable after
// construction and safe for concurrent Sample calls (each with its own
// RNG). The acceptance probability and alias index of a column share
// one cell, so a sample touches a single cache line however the
// rejection lands — on Zipfian catalogs the table is the hot random
// access of click generation.
type Alias struct {
	cells []aliasCell
}

// aliasCell holds a column's acceptance threshold in the 53-bit
// integer domain Float64 draws from: "Float64() < prob" is evaluated
// as "Uint64()>>11 < thr" with thr = ceil(prob * 2^53), which is
// bit-for-bit the same decision (multiplying by a power of two is
// exact, and comparing an integer-valued float against X is comparing
// against ceil(X)) without the int-to-float conversion per draw.
type aliasCell struct {
	thr   uint64
	alias int32
}

// probThreshold converts an acceptance probability to its integer
// threshold. prob is in [0, 1]; 2^53 means "always accept".
func probThreshold(prob float64) uint64 {
	return uint64(math.Ceil(prob * (1 << 53)))
}

// NewAlias builds an alias table over weights. Weights must be finite
// and non-negative with a positive sum.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("dist: alias over empty weights")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dist: alias weight %d = %v invalid", i, w)
		}
		sum += w
	}
	if !(sum > 0) {
		return nil, fmt.Errorf("dist: alias weights sum to %v, need > 0", sum)
	}

	a := &Alias{cells: make([]aliasCell, n)}
	// Scaled probabilities; partition into under- and over-full columns.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		a.cells[s] = aliasCell{thr: probThreshold(scaled[s]), alias: l}
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers are full columns (up to float rounding).
	for _, i := range large {
		a.cells[i].thr = 1 << 53
	}
	for _, i := range small {
		a.cells[i].thr = 1 << 53
	}
	return a, nil
}

// Sample draws one index according to the weights. The two draws and
// their acceptance decisions are identical to the textbook
// "Float64() < prob" formulation (see aliasCell) — the golden stream
// tests pin this bit-for-bit.
func (a *Alias) Sample(rng *RNG) int {
	i := rng.Intn(len(a.cells))
	c := a.cells[i]
	if rng.Uint64()>>11 < c.thr {
		return i
	}
	return int(c.alias)
}

// Marks is caller-owned dedup scratch for SampleDistinct: one
// generation stamp per alias column, so a draw tests and sets one
// word instead of hashing into a map, and starting the next call
// clears nothing. A Marks serves one goroutine; the Alias it is used
// with stays immutable and shared. The zero value is ready to use and
// sizes itself to the first table it meets.
type Marks struct {
	stamp []uint32
	gen   uint32
}

// next starts a new generation over n columns and returns its stamp.
func (m *Marks) next(n int) uint32 {
	if len(m.stamp) < n {
		m.stamp = make([]uint32, n)
	}
	m.gen++
	if m.gen == 0 { // uint32 wrap: clear stale stamps, then restart at 1
		clear(m.stamp)
		m.gen = 1
	}
	return m.gen
}

// SampleDistinct appends k distinct indices, drawn by rejection, to
// dst[:0] and returns it. When k reaches the support size it returns
// every index in order; when k <= 0 it returns dst[:0]. seen marks the
// indices already drawn, so the draws, their order and the RNG
// position afterwards are those of a map-based rejection loop.
// Intended for k well below n (the synthetic-web generator switches to
// a Bernoulli scan above n/10); worst-case cost grows as k approaches
// n.
func (a *Alias) SampleDistinct(rng *RNG, k int, seen *Marks, dst []int) []int {
	n := len(a.cells)
	dst = dst[:0]
	if k >= n {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	if k <= 0 {
		return dst
	}
	gen := seen.next(n)
	for len(dst) < k {
		i := a.Sample(rng)
		if seen.stamp[i] == gen {
			continue
		}
		seen.stamp[i] = gen
		dst = append(dst, i)
	}
	return dst
}
