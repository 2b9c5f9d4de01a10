package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a test counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if c.Shards() != 1 {
		t.Fatalf("Shards = %d, want 1", c.Shards())
	}
	// get-or-create: same name returns the same counter.
	if r.Counter("test_total", "a test counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestShardedCounterConcurrentExactness(t *testing.T) {
	// Satellite requirement: concurrent-writer exactness for sharded
	// counters under -race. Many goroutines hammer distinct and
	// overlapping shards; the total must be exact.
	r := NewRegistry()
	c := r.ShardedCounter("sharded_total", "sharded", 8)
	const (
		workers = 16
		perW    = 10000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.AddShard(w, 1)
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Value(), uint64(workers*perW); got != want {
		t.Fatalf("Value = %d, want %d", got, want)
	}
	// Shard distribution: workers 0..15 over 8 cells → each cell got
	// exactly two workers' worth.
	for i := 0; i < c.Shards(); i++ {
		if got := c.ShardValue(i); got != 2*perW {
			t.Fatalf("ShardValue(%d) = %d, want %d", i, got, 2*perW)
		}
	}
}

func TestPlainCounterConcurrentExactness(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("plain_total", "plain")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 40000 {
		t.Fatalf("Value = %d, want 40000", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Add(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
	g.Set(99)
	if got := g.Value(); got != 99 {
		t.Fatalf("after Set, Value = %d, want 99", got)
	}
	g.AddShard(0, 1)
	if got := g.Value(); got != 100 {
		t.Fatalf("after AddShard, Value = %d, want 100", got)
	}
	if r.Gauge("depth", "queue depth") != g {
		t.Fatal("re-registration returned a different gauge")
	}
}

func TestLabelsDistinguishSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "reqs", L("endpoint", "a"))
	b := r.Counter("reqs_total", "reqs", L("endpoint", "b"))
	if a == b {
		t.Fatal("different labels returned the same counter")
	}
	// Label order must not matter for identity.
	x := r.Counter("multi_total", "m", L("b", "2"), L("a", "1"))
	y := r.Counter("multi_total", "m", L("a", "1"), L("b", "2"))
	if x != y {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("thing", "g")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_reqs_total", "requests served", L("endpoint", "demand"))
	c.Add(7)
	r.Counter("app_reqs_total", "requests served", L("endpoint", "spread")).Add(3)
	g := r.Gauge("app_depth", "queue depth")
	g.Set(5)
	h := r.Histogram("app_latency_seconds", "latency", 1e-9)
	h.Observe(1500) // ns

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP app_reqs_total requests served\n",
		"# TYPE app_reqs_total counter\n",
		`app_reqs_total{endpoint="demand"} 7` + "\n",
		`app_reqs_total{endpoint="spread"} 3` + "\n",
		"# TYPE app_depth gauge\n",
		"app_depth 5\n",
		"# TYPE app_latency_seconds histogram\n",
		`app_latency_seconds_bucket{le="+Inf"} 1` + "\n",
		"app_latency_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
	// Single HELP/TYPE header per family even with two series.
	if n := strings.Count(out, "# TYPE app_reqs_total"); n != 1 {
		t.Errorf("family header emitted %d times, want 1", n)
	}
}

func TestWritePrometheusPerShard(t *testing.T) {
	r := NewRegistry()
	c := r.ShardedCounter("work_total", "per-shard work", 4)
	c.AddShard(1, 10)
	c.AddShard(3, 20)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `work_total{shard="1"} 10`) || !strings.Contains(out, `work_total{shard="3"} 20`) {
		t.Fatalf("per-shard series missing:\n%s", out)
	}
	if strings.Contains(out, `shard="0"`) {
		t.Fatalf("zero shard should be suppressed:\n%s", out)
	}

	// An all-zero sharded counter still renders one total line.
	r2 := NewRegistry()
	r2.ShardedCounter("idle_total", "idle", 4)
	b.Reset()
	if err := r2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "idle_total 0\n") {
		t.Fatalf("zero sharded counter not rendered:\n%s", b.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c").Add(3)
	r.Gauge("g", "g").Set(-2)
	h := r.Histogram("h_seconds", "h", 1e-9)
	h.Observe(2e9)

	samples := r.Snapshot()
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Name] = s.Value
	}
	if got["c_total"] != 3 {
		t.Errorf("c_total = %v, want 3", got["c_total"])
	}
	if got["g"] != -2 {
		t.Errorf("g = %v, want -2", got["g"])
	}
	if got["h_seconds_count"] != 1 {
		t.Errorf("h_seconds_count = %v, want 1", got["h_seconds_count"])
	}
	if got["h_seconds_sum"] != 2 { // 2e9 ns scaled to seconds
		t.Errorf("h_seconds_sum = %v, want 2", got["h_seconds_sum"])
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-1: 1, 0: 1, 1: 1, 2: 2, 3: 4, 8: 8, 9: 16, 1 << 21: 1 << 20}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.cells[0].v.Add(d) }

// AddShard moves shard i's cell by d.
func (g *Gauge) AddShard(i int, d int64) {
	g.cells[i&(len(g.cells)-1)].v.Add(d)
}
