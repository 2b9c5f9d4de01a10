package stats

import (
	"math"
	"testing"
)

func TestZipfExponentFromRanks(t *testing.T) {
	// Exact Zipf frequencies must regress to the exact exponent.
	for _, s := range []float64{0.6, 1.0, 1.4} {
		xs := make([]float64, 2000)
		for i := range xs {
			xs[i] = 1e6 * math.Pow(float64(i+1), -s)
		}
		got, err := ZipfExponentFromRanks(xs, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-s) > 0.01 {
			t.Errorf("s=%v: estimated %v", s, got)
		}
	}
}

func TestZipfExponentValidation(t *testing.T) {
	if _, err := ZipfExponentFromRanks([]float64{1, 2, 3}, 1); err == nil {
		t.Error("ranks<2 should fail")
	}
	if _, err := ZipfExponentFromRanks([]float64{0, 0, 0}, 3); err == nil {
		t.Error("non-positive values should fail")
	}
	// Constant head: slope 0, estimate 0, no error.
	got, err := ZipfExponentFromRanks([]float64{5, 5, 5, 5}, 4)
	if err != nil || math.Abs(got) > 1e-9 {
		t.Errorf("constant head: got %v, %v", got, err)
	}
}

func TestZipfExponentClampsRanks(t *testing.T) {
	xs := []float64{100, 50, 25}
	if _, err := ZipfExponentFromRanks(xs, 100); err != nil {
		t.Errorf("ranks beyond len should clamp: %v", err)
	}
}
