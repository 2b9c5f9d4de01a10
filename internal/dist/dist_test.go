package dist

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at draw %d", i)
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds gave identical first draw")
	}
}

func TestRNGUniformity(t *testing.T) {
	rng := NewRNG(7)
	const n, buckets = 200000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[rng.Intn(buckets)]++
	}
	for b, c := range counts {
		if frac := float64(c) / n; frac < 0.09 || frac > 0.11 {
			t.Errorf("bucket %d frac %v, want ~0.1", b, frac)
		}
	}
	var sum float64
	for i := 0; i < n; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestSplitDecorrelates(t *testing.T) {
	parent := NewRNG(9)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d of 100 draws identical across sibling splits", same)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	rng := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v, want ~1", variance)
	}
}

func TestLogNormal(t *testing.T) {
	if _, err := NewLogNormal(0, 0); err == nil {
		t.Error("sigma=0 should fail")
	}
	if _, err := NewLogNormal(math.NaN(), 1); err == nil {
		t.Error("NaN mu should fail")
	}
	ln, err := NewLogNormal(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(3)
	const n = 100000
	var sumLog float64
	for i := 0; i < n; i++ {
		x := ln.Sample(rng)
		if x <= 0 {
			t.Fatalf("lognormal sample %v not positive", x)
		}
		sumLog += math.Log(x)
	}
	if m := sumLog / n; math.Abs(m) > 0.02 {
		t.Errorf("log-mean %v, want ~0", m)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := NewRNG(5)
	// Covers the Knuth branch (< 30) and the PTRS branch (>= 30).
	for _, mean := range []float64{0.5, 4, 25, 80, 1500} {
		const n = 60000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			k := float64(Poisson(rng, mean))
			sum += k
			sumSq += k * k
		}
		m := sum / n
		v := sumSq/n - m*m
		if math.Abs(m-mean)/mean > 0.03 {
			t.Errorf("mean %v: sample mean %v", mean, m)
		}
		if math.Abs(v-mean)/mean > 0.08 {
			t.Errorf("mean %v: sample variance %v, want ~mean", mean, v)
		}
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -3) != 0 || Poisson(rng, math.NaN()) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestAliasValidation(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0, 0}, {-1, 2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := NewAlias(w); err == nil {
			t.Errorf("weights %v should fail", w)
		}
	}
}

func TestAliasFrequencies(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 4 {
		t.Fatalf("N = %d", a.N())
	}
	rng := NewRNG(1)
	counts := make([]int, 4)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[a.Sample(rng)]++
	}
	for i, c := range counts {
		want := weights[i] / 10
		if got := float64(c) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("index %d freq %v, want %v", i, got, want)
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a, err := NewAlias([]float64{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(2)
	for i := 0; i < 100000; i++ {
		if s := a.Sample(rng); s == 0 || s == 2 {
			t.Fatalf("sampled zero-weight index %d", s)
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	weights := make([]float64, 100)
	for i := range weights {
		weights[i] = float64(i + 1)
	}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(8)
	var marks Marks
	got := a.SampleDistinct(rng, 10, &marks, nil)
	if len(got) != 10 {
		t.Fatalf("got %d indices", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	if all := a.SampleDistinct(rng, 200, &marks, nil); len(all) != 100 {
		t.Errorf("k >= n should return all indices, got %d", len(all))
	}
	if none := a.SampleDistinct(rng, 0, &marks, nil); none != nil {
		t.Errorf("k = 0 should return nil, got %v", none)
	}
}

// N returns the support size.
func (a *Alias) N() int { return len(a.cells) }
