package stats

import (
	"testing"
	"testing/quick"
)

func TestLog2Bin(t *testing.T) {
	cases := []struct{ n, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {6, 3}, {7, 3},
		{8, 4}, {15, 4}, {16, 5}, {1022, 10}, {1023, 10}, {1024, 10}, {1 << 20, 10},
	}
	for _, c := range cases {
		if got := Log2Bin(c.n, 10); got != c.want {
			t.Errorf("Log2Bin(%d, 10) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLog2BinPaperGrouping(t *testing.T) {
	// Paper footnote 4: 0 reviews → first group, 1-2 reviews → second,
	// 1023+ reviews → final group (with maxBin=10... the bins there are
	// 0 | 1-2 | 3-6 | ... which is an offset variant; ours: 0 | 1 | 2-3 |
	// 4-7 | ... both are log-scaled groupings). Verify ours is monotone
	// and the terminal bin captures >= 1024 minus one-off boundary.
	if Log2Bin(0, 10) != 0 {
		t.Error("0 reviews must be bin 0")
	}
	if Log2Bin(1, 10) == Log2Bin(0, 10) {
		t.Error("1 review must leave bin 0")
	}
	if Log2Bin(5000, 10) != 10 {
		t.Error("large counts must land in the final bin")
	}
}

func TestLog2BinMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return Log2Bin(x, 10) <= Log2Bin(y, 10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2BinLabel(t *testing.T) {
	if Log2BinLabel(0, 10) != "0" {
		t.Errorf("bin 0 label = %q", Log2BinLabel(0, 10))
	}
	if Log2BinLabel(1, 10) != "1" {
		t.Errorf("bin 1 label = %q", Log2BinLabel(1, 10))
	}
	if Log2BinLabel(2, 10) != "2-3" {
		t.Errorf("bin 2 label = %q", Log2BinLabel(2, 10))
	}
	if Log2BinLabel(10, 10) != ">=512" {
		t.Errorf("final bin label = %q", Log2BinLabel(10, 10))
	}
}

func TestLog2BinCenter(t *testing.T) {
	if Log2BinCenter(0) != 0 {
		t.Error("bin 0 center should be 0")
	}
	if c := Log2BinCenter(1); c != 1 {
		t.Errorf("bin 1 center = %v, want 1", c)
	}
	if c := Log2BinCenter(3); c < 4 || c > 7 {
		t.Errorf("bin 3 center %v outside [4,7]", c)
	}
}
