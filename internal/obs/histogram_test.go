package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func newHist(t *testing.T) *Histogram {
	t.Helper()
	return NewRegistry().Histogram("h", "test histogram", 1)
}

// leBucket is one cumulative bucket of a histogram's exposition.
type leBucket struct {
	le  string
	cum uint64
}

// exposedBuckets renders h as GET /metrics does (scale 1, so le bounds
// are raw units) and returns its cumulative le buckets, +Inf last.
func exposedBuckets(t *testing.T, h *Histogram) []leBucket {
	t.Helper()
	var b strings.Builder
	if err := h.writePrometheus(&b, "h", nil); err != nil {
		t.Fatal(err)
	}
	var out []leBucket
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `h_bucket{le="`)
		if !ok {
			continue
		}
		le, count, _ := strings.Cut(rest, `"} `)
		cum, err := strconv.ParseUint(count, 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		out = append(out, leBucket{le, cum})
	}
	return out
}

// quantileBucket returns the index of the bucket holding the
// q-quantile observation (rank ceil(q*count), at least 1): the bucket a
// scraper's quantile estimate interpolates within.
func quantileBucket(buckets []leBucket, q float64) int {
	rank := uint64(math.Ceil(q * float64(buckets[len(buckets)-1].cum)))
	if rank == 0 {
		rank = 1
	}
	for i, b := range buckets {
		if b.cum >= rank {
			return i
		}
	}
	return len(buckets) - 1
}

// leOf is the exposition's le bound for a raw value's bucket.
func leOf(v uint64) string {
	if b := bucketOf(v); b < histBuckets {
		return formatFloat(float64(bucketUpper(b)))
	}
	return "+Inf"
}

func TestHistogramZeroObservations(t *testing.T) {
	h := newHist(t)
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram has nonzero state: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if got := h.Mean(); got != 0 {
		t.Fatalf("Mean on empty = %v, want 0", got)
	}
	// Exposition of an empty histogram is still valid: +Inf bucket,
	// zero sum and count.
	var b strings.Builder
	reg := NewRegistry()
	reg.Histogram("empty_seconds", "e", 1e-9)
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`empty_seconds_bucket{le="+Inf"} 0`, "empty_seconds_sum 0", "empty_seconds_count 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("empty exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	// All observations land in one bucket: the exposition holds them
	// all under its bound, and exact stats must be exact.
	h := newHist(t)
	for i := 0; i < 100; i++ {
		h.Observe(5) // bucket for bits.Len64(5)=3 → [4,7]
	}
	if h.Count() != 100 || h.Sum() != 500 || h.Max() != 5 {
		t.Fatalf("count=%d sum=%d max=%d, want 100/500/5", h.Count(), h.Sum(), h.Max())
	}
	if got := h.Mean(); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got, want := exposedBuckets(t, h), []leBucket{{"7", 100}, {"+Inf", 100}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
}

func TestHistogramValueZero(t *testing.T) {
	h := newHist(t)
	h.Observe(0)
	h.Observe(0)
	if got, want := exposedBuckets(t, h), []leBucket{{"0", 2}, {"+Inf", 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets of zeros = %v, want %v", got, want)
	}
	if h.Count() != 2 || h.Sum() != 0 {
		t.Fatalf("count=%d sum=%d, want 2/0", h.Count(), h.Sum())
	}
}

func TestHistogramBeyondLastBoundary(t *testing.T) {
	// Values past the last finite bucket land in the overflow bucket:
	// exact stats stay exact, and exposition rolls the overflow into
	// +Inf only.
	h := newHist(t)
	huge := uint64(1) << 60 // way past 2^48-1
	h.Observe(huge)
	if h.Count() != 1 || h.Sum() != huge || h.Max() != huge {
		t.Fatalf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if got, want := exposedBuckets(t, h), []leBucket{{"+Inf", 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets of overflow = %v, want %v", got, want)
	}

	reg := NewRegistry()
	oh := reg.Histogram("of_bytes", "overflow", 1)
	oh.Observe(huge)
	oh.Observe(10)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `of_bytes_bucket{le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket should count overflow:\n%s", out)
	}
	if !strings.Contains(out, "of_bytes_count 2") {
		t.Fatalf("count should include overflow:\n%s", out)
	}
}

func TestExpositionCumulativeMonotone(t *testing.T) {
	// Property test: for random observation sets, the exposition's
	// cumulative counts never decrease and end at Count under +Inf, so a
	// quantile read from them is non-decreasing in q, and q=1 lands in
	// the max's bucket (+Inf when the max overflowed).
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		h := NewRegistry().Histogram("h", "prop", 1)
		n := 1 + rng.Intn(500)
		var max uint64
		for i := 0; i < n; i++ {
			var v uint64
			switch rng.Intn(3) {
			case 0:
				v = uint64(rng.Intn(16)) // tiny, incl. zero
			case 1:
				v = uint64(rng.Int63n(1e6))
			default:
				v = uint64(rng.Int63()) // up to 2^63, exercises overflow
			}
			if v > max {
				max = v
			}
			h.Observe(v)
		}
		buckets := exposedBuckets(t, h)
		for i := 1; i < len(buckets); i++ {
			if buckets[i].cum < buckets[i-1].cum {
				t.Fatalf("trial %d: cumulative count falls at le=%s: %v", trial, buckets[i].le, buckets)
			}
		}
		if last := buckets[len(buckets)-1]; last.le != "+Inf" || last.cum != h.Count() {
			t.Fatalf("trial %d: last bucket %v, want +Inf with count %d", trial, last, h.Count())
		}
		prev := 0
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			i := quantileBucket(buckets, q)
			if i < prev {
				t.Fatalf("trial %d: q=%v falls in bucket le=%s, below le=%s", trial, q, buckets[i].le, buckets[prev].le)
			}
			prev = i
		}
		if got, want := buckets[prev].le, leOf(max); got != want {
			t.Fatalf("trial %d: q=1 in bucket le=%s, want the max's le=%s (max=%d)", trial, got, want, max)
		}
	}
}

func TestExpositionQuantileAccuracy(t *testing.T) {
	// A scraper reads quantiles from the exposition's le buckets. Log2
	// buckets bound its relative error by 2x: the bucket holding the
	// q-quantile observation must be the true value's bucket.
	rng := rand.New(rand.NewSource(7))
	h := newHist(t)
	vals := make([]uint64, 10000)
	for i := range vals {
		vals[i] = uint64(rng.Int63n(1 << 20))
		h.Observe(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	buckets := exposedBuckets(t, h)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		truth := vals[int(math.Ceil(q*float64(len(vals))))-1]
		if got, want := buckets[quantileBucket(buckets, q)].le, leOf(truth); got != want {
			t.Errorf("q=%v falls in bucket le=%s, truth %d is in le=%s", q, got, truth, want)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	// Exactness of count/sum under concurrent writers (-race).
	h := newHist(t)
	const workers, perW = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(uint64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*perW); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	wantSum := uint64(0)
	for w := 1; w <= workers; w++ {
		wantSum += uint64(w) * perW
	}
	if got := h.Sum(); got != wantSum {
		t.Fatalf("Sum = %d, want %d", got, wantSum)
	}
	if got := h.Max(); got != workers {
		t.Fatalf("Max = %d, want %d", got, workers)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := newHist(t)
	h.ObserveDuration(1500 * time.Nanosecond)
	h.ObserveDuration(-5) // clamps to 0
	if h.Count() != 2 || h.Sum() != 1500 {
		t.Fatalf("count=%d sum=%d, want 2/1500", h.Count(), h.Sum())
	}
	h.ObserveSince(time.Now().Add(-time.Microsecond))
	if h.Count() != 3 {
		t.Fatalf("count=%d, want 3", h.Count())
	}
	if h.Sum() < 1500+1000 {
		t.Fatalf("ObserveSince recorded too little: sum=%d", h.Sum())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{1: "1", 0: "0", 1.5: "1.5", 255: "255", 1e-9: "1e-09"}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
