package stats

import (
	"fmt"
	"math"
)

// Log2Bin returns the index of the logarithmic bin containing the
// non-negative count n, following the paper's Figure 8 grouping: entities
// with 0 reviews form bin 0, 1–2 reviews bin 1, 3–6 bin 2, and in general
// bin b >= 1 holds counts in [2^(b-1), 2^b - 1]... capped so that counts
// of 1023 or more land in the final bin when maxBin = 10.
func Log2Bin(n, maxBin int) int {
	if n <= 0 {
		return 0
	}
	b := int(math.Floor(math.Log2(float64(n)))) + 1
	if b > maxBin {
		return maxBin
	}
	return b
}

// Log2BinLabel returns a human-readable range label for bin b under the
// same scheme (e.g. "0", "1-2", "3-6", ..., ">=512" for the final bin).
func Log2BinLabel(b, maxBin int) string {
	if b <= 0 {
		return "0"
	}
	lo := 1 << (b - 1)
	if b >= maxBin {
		return fmt.Sprintf(">=%d", lo)
	}
	hi := 1<<b - 1
	if lo == hi {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}

// Log2BinCenter returns a representative count for bin b (geometric
// center of the bin range), used as the x-coordinate when plotting
// binned series on a log axis.
func Log2BinCenter(b int) float64 {
	if b <= 0 {
		return 0
	}
	lo := float64(int(1) << (b - 1))
	hi := float64(int(1)<<b - 1)
	return math.Sqrt(lo * hi)
}
