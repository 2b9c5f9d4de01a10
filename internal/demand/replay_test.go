package demand

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/logs"
)

// TestGenerateOrderedRefsMatchesSimulateRefs pins the parallel ordered
// ref stream to the serial generator's canonical order, the contract
// the segment-store writer builds on.
func TestGenerateOrderedRefsMatchesSimulateRefs(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 80)
	cfg := SimConfig{Events: 5000, Cookies: 700, Seed: 21}

	serial := serialRefs(t, cat, cfg)

	for _, gens := range []int{1, 3, 8} {
		var ordered []ClickRef
		if err := GenerateOrderedRefs(cat, cfg, PipelineConfig{Generators: gens, Window: 192},
			func(r ClickRef) error {
				ordered = append(ordered, r)
				return nil
			}); err != nil {
			t.Fatal(err)
		}
		if len(ordered) != len(serial) {
			t.Fatalf("gens=%d: %d refs, want %d", gens, len(ordered), len(serial))
		}
		for i := range serial {
			if ordered[i] != serial[i] {
				t.Fatalf("gens=%d: ref %d = %+v, want %+v", gens, i, ordered[i], serial[i])
			}
		}
	}
}

// TestGenerateOrderedRefsEmitError: an emit error stops generation
// promptly and propagates.
func TestGenerateOrderedRefsEmitError(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 40)
	boom := errors.New("disk full")
	n := 0
	err := GenerateOrderedRefs(cat, SimConfig{Events: 2000, Cookies: 100, Seed: 3},
		PipelineConfig{Generators: 4, Window: 64}, func(ClickRef) error {
			n++
			if n == 100 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if n != 100 {
		t.Fatalf("emit called %d times after error, want exactly 100", n)
	}
}

// TestFeedRefsMatchesSerial: routing ref batches through FeedRefs
// merges to the identical estimates as a serial AddRef fold, for shard
// counts crossing the pow2/non-pow2 routing paths and for batch splits
// that don't align with anything.
func TestFeedRefsMatchesSerial(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 300)
	cfg := SimConfig{Events: 20000, Cookies: 4000, Seed: 17}

	refs := serialRefs(t, cat, cfg)
	want := estimateBytes(t, serialFold(cat, refs))

	for _, shards := range []int{1, 3, 4, 8} {
		sa := NewShardedAggregator(cat, shards)
		emit, done := sa.FeedRefs()
		// Deliver in ragged batches, reusing one buffer to assert the
		// no-retention contract.
		buf := make([]ClickRef, 0, 777)
		for i, r := range refs {
			buf = append(buf, r)
			if len(buf) == cap(buf) || i == len(refs)-1 {
				emit(buf)
				buf = buf[:0]
			}
		}
		done()
		if got := estimateBytes(t, sa); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: FeedRefs estimates differ from serial fold", shards)
		}
	}
}

// TestFeedRefsDropsInvalid: out-of-range refs — negative entities
// included, on the division and the mask/shift routing paths — drop
// exactly as AddRef drops them instead of corrupting shard state or
// panicking.
func TestFeedRefsDropsInvalid(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 50)
	for _, shards := range []int{3, 4} {
		sa := NewShardedAggregator(cat, shards)
		emit, done := sa.FeedRefs()
		emit([]ClickRef{
			{Cookie: 1, Entity: 3, Src: 0},
			{Cookie: 2, Entity: int32(len(cat.Entities)), Src: 0}, // out of range
			{Cookie: 3, Entity: 5, Src: 9},                        // bad source
			{Cookie: 4, Entity: -1, Src: 0},                       // negative
			{Cookie: 5, Entity: math.MinInt32, Src: 0},            // negative
		})
		done()
		ests := sa.Demand(logs.Search)
		if ests[3].Visits != 1 {
			t.Errorf("shards=%d: entity 3 visits = %d, want 1", shards, ests[3].Visits)
		}
		total := 0
		for _, e := range ests {
			total += e.Visits
		}
		if total != 1 {
			t.Errorf("shards=%d: total search visits = %d, want 1 (invalid refs must drop)", shards, total)
		}
	}
}

// TestFeedStats: Feed's resolver pool reports resolved vs dropped wire
// clicks — the accounting clicklog agg prints — and the counts
// partition the input exactly.
func TestFeedStats(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 50)
	sa := NewShardedAggregator(cat, 2)
	emit, done := sa.Feed()
	const entityClicks, foreignClicks = 300, 77
	for i := 0; i < entityClicks; i++ {
		emit(logs.Click{Source: logs.Search, Cookie: uint64(i + 1), URL: cat.Entities[i%len(cat.Entities)].URL})
	}
	for i := 0; i < foreignClicks; i++ {
		emit(logs.Click{Source: logs.Browse, Cookie: 1, URL: "http://other.example.com/page"})
	}
	done()
	resolved, dropped := sa.FeedStats()
	if resolved != entityClicks || dropped != foreignClicks {
		t.Fatalf("FeedStats = (%d, %d), want (%d, %d)", resolved, dropped, entityClicks, foreignClicks)
	}
	total := 0
	for _, e := range sa.Demand(logs.Search) {
		total += e.Visits
	}
	if total != entityClicks {
		t.Fatalf("folded %d visits, want %d", total, entityClicks)
	}
}
