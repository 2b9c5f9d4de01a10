package demand

import (
	"testing"

	"repro/internal/logs"
	"repro/internal/obs"
)

// These tests pin the observability contract on the demand hot paths:
// with the obs counters, histograms, and (enabled!) spans all live,
// the steady-state fold paths must allocate NOTHING. Steady state
// means the aggregator has already seen the refs once — first contact
// grows cookie sets and arena chunks by design; re-folding the same
// refs exercises pure aggregation plus instrumentation.

// foldFixture builds a catalog, a primed aggregator, and a ref batch.
func foldFixture(t *testing.T, events int) (*Aggregator, []ClickRef) {
	t.Helper()
	cat := testCatalog(t, logs.Amazon, 500)
	cfg := SimConfig{Events: events, Cookies: 200, Seed: 11}
	refs := serialRefs(t, cat, cfg)
	agg := NewAggregator(cat)
	agg.SetCookieHint(cfg.Cookies)
	return agg, refs
}

func TestFoldBatchZeroAlloc(t *testing.T) {
	agg, refs := foldFixture(t, 4096)
	agg.FoldBatch(refs) // prime: cookie sets and scratch grow here
	if n := testing.AllocsPerRun(50, func() { agg.FoldBatch(refs) }); n != 0 {
		t.Fatalf("steady-state FoldBatch allocates %v/op with instrumentation enabled, want 0", n)
	}
}

func TestFoldBatchZeroAllocTracing(t *testing.T) {
	// Tracing on must not change the contract: spans record into the
	// preallocated ring.
	obs.EnableTracing(1 << 10)
	defer obs.DisableTracing()
	agg, refs := foldFixture(t, 4096)
	agg.FoldBatch(refs)
	sp := obs.RegisterSpan("test/fold")
	if n := testing.AllocsPerRun(50, func() {
		s := sp.Start()
		agg.FoldBatch(refs)
		s.End()
	}); n != 0 {
		t.Fatalf("steady-state FoldBatch allocates %v/op with tracing enabled, want 0", n)
	}
}

func TestAddRefZeroAlloc(t *testing.T) {
	agg, refs := foldFixture(t, 2048)
	for _, r := range refs {
		agg.AddRef(r) // prime
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, r := range refs {
			agg.AddRef(r)
		}
	}); n != 0 {
		t.Fatalf("steady-state AddRef allocates %v/op, want 0", n)
	}
}

func TestObsCountersAdvance(t *testing.T) {
	// The fold counters are package-global; measure deltas.
	b0, r0 := obsFoldBatches.Value(), obsFoldRefs.Value()
	agg, refs := foldFixture(t, 1000)
	agg.FoldBatch(refs)
	if got := obsFoldBatches.Value() - b0; got < 1 {
		t.Fatalf("fold batches delta = %d, want >= 1", got)
	}
	if got := obsFoldRefs.Value() - r0; got != uint64(len(refs)) {
		t.Fatalf("fold refs delta = %d, want %d", got, len(refs))
	}
	if obsFoldSec.Count() == 0 {
		t.Fatal("fold latency histogram never observed")
	}
}

func TestPipelineObsCounters(t *testing.T) {
	w0 := obsGenWindows.Value()
	rr0 := obsRefsRouted.Value()
	sh0 := uint64(0)
	for i := 0; i < obsShardRefs.Shards(); i++ {
		sh0 += obsShardRefs.ShardValue(i)
	}
	cat := testCatalog(t, logs.Amazon, 300)
	cfg := SimConfig{Events: 5000, Cookies: 100, Seed: 3}
	if _, err := GeneratePipeline(cat, cfg, PipelineConfig{Generators: 2, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	// Both sources × ceil(5000/2048) windows = 6.
	if got := obsGenWindows.Value() - w0; got != 6 {
		t.Fatalf("gen windows delta = %d, want 6", got)
	}
	// Every simulated event routes (simulation emits only valid refs).
	if got := obsRefsRouted.Value() - rr0; got != 2*5000 {
		t.Fatalf("refs routed delta = %d, want %d", got, 2*5000)
	}
	sh1 := uint64(0)
	for i := 0; i < obsShardRefs.Shards(); i++ {
		sh1 += obsShardRefs.ShardValue(i)
	}
	if got := sh1 - sh0; got != 2*5000 {
		t.Fatalf("per-shard refs delta = %d, want %d", got, 2*5000)
	}
	if obsFreeHits.Value()+obsFreeMisses.Value() == 0 {
		t.Fatal("free list counters never moved")
	}
}
