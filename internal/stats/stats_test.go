package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Sum != 0 {
		t.Errorf("zero Summary expected, got %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if !almostEq(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v", s.Mean)
	}
	if !almostEq(s.Variance, 4, 1e-12) {
		t.Errorf("Variance = %v", s.Variance)
	}
	if !almostEq(s.StdDev, 2, 1e-12) {
		t.Errorf("StdDev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestZScores(t *testing.T) {
	z := ZScores([]float64{1, 2, 3, 4, 5})
	s := Summarize(z)
	if !almostEq(s.Mean, 0, 1e-12) || !almostEq(s.StdDev, 1, 1e-12) {
		t.Errorf("z-scores not standardized: mean=%v sd=%v", s.Mean, s.StdDev)
	}
}

func TestZScoresConstant(t *testing.T) {
	z := ZScores([]float64{7, 7, 7})
	for _, v := range z {
		if v != 0 {
			t.Errorf("constant input should give zero scores, got %v", z)
		}
	}
}

func TestGiniUniform(t *testing.T) {
	if g := Gini([]float64{5, 5, 5, 5}); !almostEq(g, 0, 1e-12) {
		t.Errorf("uniform Gini = %v, want 0", g)
	}
}

func TestGiniExtreme(t *testing.T) {
	xs := make([]float64, 1000)
	xs[0] = 100
	if g := Gini(xs); g < 0.99 {
		t.Errorf("all-mass-on-one Gini = %v, want ~1", g)
	}
}

func TestGiniEmptyAndZero(t *testing.T) {
	if Gini(nil) != 0 {
		t.Error("empty Gini should be 0")
	}
	if Gini([]float64{0, 0}) != 0 {
		t.Error("zero-mass Gini should be 0")
	}
}

func TestGiniBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		g := Gini(xs)
		return g >= -1e-9 && g <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
