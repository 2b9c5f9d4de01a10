package dist

import (
	"math"
	"slices"
	"testing"
)

// sampleDistinctMap is the map-based rejection loop SampleDistinct
// replaced, kept as its oracle: the same draws in the same order, one
// map per call.
func sampleDistinctMap(a *Alias, rng *RNG, k int) []int {
	n := len(a.cells)
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if k <= 0 {
		return nil
	}
	out := make([]int, 0, k)
	seen := make(map[int]struct{}, k)
	for len(out) < k {
		i := a.Sample(rng)
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, i)
	}
	return out
}

// zipfAlias is an alias table over n Zipf(1) weights: skewed enough
// that rejection repeats often.
func zipfAlias(t *testing.T, n int) *Alias {
	t.Helper()
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -1)
	}
	a, err := NewAlias(w)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSampleDistinctMatchesMapOracle checks that the stamped sampler
// returns the oracle's indices in the oracle's order and leaves the RNG
// where the oracle leaves it. One Marks and one dst are reused across
// every call and table size, as the web generator reuses them.
func TestSampleDistinctMatchesMapOracle(t *testing.T) {
	var seen Marks
	var dst []int
	for _, n := range []int{1, 7, 2000} {
		a := zipfAlias(t, n)
		for _, k := range []int{-1, 0, 1, n / 10, n - 1, n, n + 5} {
			for seed := uint64(1); seed <= 5; seed++ {
				// Two calls per stream: the first call's stamps must
				// not read as drawn in the second.
				wrng, grng := NewRNG(seed), NewRNG(seed)
				for call := 0; call < 2; call++ {
					want := sampleDistinctMap(a, wrng, k)
					dst = a.SampleDistinct(grng, k, &seen, dst)
					if !slices.Equal(dst, want) {
						t.Fatalf("n=%d k=%d seed=%d call %d: got %v, want %v", n, k, seed, call, dst, want)
					}
				}
				if g, w := grng.Uint64(), wrng.Uint64(); g != w {
					t.Fatalf("n=%d k=%d seed=%d: next draw %#x, oracle %#x", n, k, seed, g, w)
				}
			}
		}
	}
}

// TestMarksGenerationWrap drives the stamp counter through its uint32
// wrap: stamps left from before the wrap must not read as drawn.
func TestMarksGenerationWrap(t *testing.T) {
	a := zipfAlias(t, 50)
	var seen Marks
	a.SampleDistinct(NewRNG(1), 40, &seen, nil)
	seen.gen = math.MaxUint32 - 1 // the next call stamps MaxUint32, the one after wraps
	wrng, grng := NewRNG(2), NewRNG(2)
	for call := 0; call < 3; call++ {
		want := sampleDistinctMap(a, wrng, 40)
		if got := a.SampleDistinct(grng, 40, &seen, nil); !slices.Equal(got, want) {
			t.Fatalf("call %d (gen %d): got %v, want %v", call, seen.gen, got, want)
		}
	}
	if g, w := grng.Uint64(), wrng.Uint64(); g != w {
		t.Fatalf("next draw %#x, oracle %#x", g, w)
	}
	if seen.gen != 2 {
		t.Errorf("gen %d after wrapping, want 2", seen.gen)
	}
}
