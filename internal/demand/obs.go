package demand

// Pipeline instrumentation. Everything here registers on obs.Default
// at package init so the metric pointers are always valid and the hot
// paths pay exactly the obs contract: an atomic add (or two) per
// BATCH, never per ref, and a span that is a single atomic load when
// tracing is off. Per-window generation timing costs two clock reads
// per 2048-event window; fold timing two per 1024–4096-ref batch —
// fractions of a nanosecond per event, below the benchmark's noise,
// and 0 allocs/op (pinned by TestFoldBatchZeroAlloc /
// TestAddRefZeroAlloc).

import "repro/internal/obs"

var (
	obsGenWindows = obs.Default.Counter("repro_demand_gen_windows_total",
		"Generation windows completed by pipeline generator workers")
	obsGenWindowSec = obs.Default.Histogram("repro_demand_gen_window_seconds",
		"Per-window generation+routing latency (includes emit into shard channels)", 1e-9)
	obsRouteBatches = obs.Default.Counter("repro_demand_route_batches_total",
		"Ref batches sent from routers to shard workers")
	obsRefsRouted = obs.Default.Counter("repro_demand_refs_routed_total",
		"ClickRefs routed to shard workers")
	obsFreeHits = obs.Default.Counter("repro_demand_freelist_hits_total",
		"Batch allocations served by the recycling free list")
	obsFreeMisses = obs.Default.Counter("repro_demand_freelist_misses_total",
		"Batch allocations that fell through to make (pool dry)")
	obsFoldBatches = obs.Default.Counter("repro_demand_fold_batches_total",
		"Batches folded through the columnar FoldBatch")
	obsFoldRefs = obs.Default.Counter("repro_demand_fold_refs_total",
		"Valid ClickRefs folded through FoldBatch")
	obsFoldSec = obs.Default.Histogram("repro_demand_fold_seconds",
		"Per-batch columnar fold latency", 1e-9)
	// Per-shard fold volume: the imbalance signal. Shard workers write
	// their own padded cell (AddShard), so the counter never bounces a
	// cache line between concurrent folds. 64 cells cover any realistic
	// shard count; larger fleets alias modulo 64.
	obsShardRefs = obs.Default.ShardedCounter("repro_demand_shard_refs_total",
		"ClickRefs folded per aggregation shard", 64)

	spanGenWindow = obs.RegisterSpan("demand/gen-window")
	spanShardFold = obs.RegisterSpan("demand/shard-fold")
)
