package demand

import (
	"testing"

	"repro/internal/logs"
)

// TestSimulateParallelMatchesSerial is the sharding correctness
// contract: for any shard count, serial generation folded across
// concurrent shard workers (GeneratePipeline with one generator)
// merges to estimates equal to the single-aggregator serial fold of
// the same stream, exactly.
func TestSimulateParallelMatchesSerial(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 300)
	cfg := SimConfig{Events: 30000, Cookies: 6000, Seed: 9}

	serial := serialFold(cat, serialRefs(t, cat, cfg))

	for _, shards := range []int{1, 2, 3, 8, 16} {
		sa, err := GeneratePipeline(cat, cfg, PipelineConfig{Generators: 1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if sa.Shards() != shards {
			t.Fatalf("shards = %d, want %d", sa.Shards(), shards)
		}
		for _, src := range []logs.Source{logs.Search, logs.Browse} {
			want := serial.Demand(src)
			got := sa.Demand(src)
			if len(got) != len(want) {
				t.Fatalf("shards=%d %s: %d estimates, want %d", shards, src, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d %s entity %d: %+v, want %+v", shards, src, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardRoutingIsStable: the router sends every entity to one
// shard, in range, at a local index that maps back to the entity —
// on both the mask/shift and the division paths.
func TestShardRoutingIsStable(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 100)
	for _, shards := range []int{4, 7} {
		sa := NewShardedAggregator(cat, shards)
		for e := range cat.Entities {
			r := ClickRef{Entity: int32(e)}
			first := sa.localize(&r)
			for i := 0; i < 3; i++ {
				again := ClickRef{Entity: int32(e)}
				if sa.localize(&again) != first || again != r {
					t.Fatalf("shards=%d: routing for entity %d not stable", shards, e)
				}
			}
			if first < 0 || first >= sa.Shards() {
				t.Fatalf("shards=%d: shard %d out of range", shards, first)
			}
			if got := int(r.Entity)*shards + first; got != e {
				t.Fatalf("shards=%d: entity %d localizes to (%d, %d), which maps back to %d",
					shards, e, first, r.Entity, got)
			}
		}
	}
}

func TestNewShardedAggregatorClampsShards(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 10)
	if got := NewShardedAggregator(cat, 0).Shards(); got != 1 {
		t.Errorf("shards=0 clamped to %d, want 1", got)
	}
	if got := NewShardedAggregator(cat, -4).Shards(); got != 1 {
		t.Errorf("shards=-4 clamped to %d, want 1", got)
	}
}
