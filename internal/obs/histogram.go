package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 buckets. Bucket b (1-based bit
// length) holds values v with bits.Len64(v) == b, i.e. the range
// [2^(b-1), 2^b-1]; bucket 0 holds the value 0. 48 buckets cover
// values up to 2^48-1 — about 3.2 days in nanoseconds or 256 TiB in
// bytes — and anything beyond lands in one overflow bucket.
const histBuckets = 48

// Histogram is a fixed-footprint log2 histogram. Observe is one
// bits.Len64, three atomic adds, and a CAS loop for the max — no
// allocation, no lock, no sample retention. The exposition places each
// observation within a factor of two (its bucket's width); Sum, Count,
// Mean, and Max are exact.
type Histogram struct {
	meta   *metric
	scale  float64 // multiplies raw units at exposition (e.g. 1e-9 ns→s)
	counts [histBuckets + 1]atomic.Uint64
	sum    atomic.Uint64
	count  atomic.Uint64
	max    atomic.Uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b > histBuckets {
		return histBuckets // overflow bucket
	}
	return b
}

// bucketUpper returns the inclusive upper bound of bucket b in raw
// units (2^b - 1); the overflow bucket has no finite bound.
func bucketUpper(b int) uint64 {
	return 1<<uint(b) - 1
}

// Observe records one value in raw units.
//
//repro:noalloc
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveDuration records a duration's nanoseconds (negative clamps
// to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.ObserveDuration(time.Since(t0))
}

// Count returns the exact number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the exact sum of observed values in raw units.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max returns the exact maximum observed value in raw units (0 if
// nothing was observed).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Mean returns the exact mean in raw units, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// writePrometheus renders the histogram as cumulative le-buckets plus
// _sum and _count, applying the exposition scale. Only non-empty
// buckets get their own le bound (plus the mandatory +Inf), keeping
// scrape size proportional to the value spread rather than the fixed
// bucket count.
func (h *Histogram) writePrometheus(w io.Writer, name string, labels []Label) error {
	var cum uint64
	for b := 0; b <= histBuckets; b++ {
		c := h.counts[b].Load()
		if c == 0 {
			continue
		}
		cum += c
		if b == histBuckets {
			continue // overflow counts roll into +Inf only
		}
		le := formatFloat(float64(bucketUpper(b)) * h.scale)
		if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(name+"_bucket", labels, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(name+"_bucket", labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", seriesKey(name+"_sum", labels), formatFloat(float64(h.sum.Load())*h.scale)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", seriesKey(name+"_count", labels), h.count.Load())
	return err
}

// formatFloat renders a float without exponent notation for integral
// values, matching common exposition style.
func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
