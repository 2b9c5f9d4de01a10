package demand

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/logs"
)

// estimateBytes canonically serializes per-source estimates so parity
// tests can assert byte-identical output.
func estimateBytes(t *testing.T, d interface {
	Demand(logs.Source) []Estimate
}) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, src := range sources {
		for i, e := range d.Demand(src) {
			fmt.Fprintf(&buf, "%s\t%d\t%d\t%d\n", src, i, e.Visits, e.UniqueCookies)
		}
	}
	return buf.Bytes()
}

// TestGeneratePipelineMatchesSerial is the acceptance contract: for
// generator/shard worker counts {1,2,4,8} (and odd window sizes) the
// pipeline's merged output is byte-identical to the serial AddRef fold
// of the serially generated stream.
func TestGeneratePipelineMatchesSerial(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 300)
	cfg := SimConfig{Events: 30000, Cookies: 6000, Seed: 9}

	serial := serialFold(cat, serialRefs(t, cat, cfg))
	want := estimateBytes(t, serial)

	for _, gens := range []int{1, 2, 4, 8} {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, window := range []int{0, 777} {
				sa, err := GeneratePipeline(cat, cfg, PipelineConfig{
					Generators: gens, Shards: shards, Window: window,
				})
				if err != nil {
					t.Fatal(err)
				}
				if sa.Shards() != shards {
					t.Fatalf("shards = %d, want %d", sa.Shards(), shards)
				}
				if got := estimateBytes(t, sa); !bytes.Equal(got, want) {
					t.Fatalf("gens=%d shards=%d window=%d: output differs from serial",
						gens, shards, window)
				}
			}
		}
	}
}

func TestGeneratePipelineEmptyCatalog(t *testing.T) {
	if _, err := GeneratePipeline(&Catalog{Site: logs.Yelp}, SimConfig{}, PipelineConfig{}); err == nil {
		t.Error("empty catalog should fail")
	}
	if err := GenerateOrdered(&Catalog{Site: logs.Yelp}, SimConfig{}, PipelineConfig{}, func(logs.Click) error { return nil }); err == nil {
		t.Error("empty catalog should fail")
	}
}

// TestGenerateOrderedMatchesSimulate: parallel generation, serial
// canonical-order delivery — the emitted wire sequence equals the
// serially generated stream's exactly, whatever the worker count.
func TestGenerateOrderedMatchesSimulate(t *testing.T) {
	cat := testCatalog(t, logs.IMDb, 120)
	cfg := SimConfig{Events: 9000, Cookies: 800, Seed: 12}
	want := wireClicks(cat, serialRefs(t, cat, cfg))
	for _, gens := range []int{1, 4, 9} {
		var got []logs.Click
		if err := GenerateOrdered(cat, cfg, PipelineConfig{Generators: gens, Window: 256}, func(c logs.Click) error {
			got = append(got, c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("gens=%d: %d clicks, want %d", gens, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gens=%d: click %d differs: %+v vs %+v", gens, i, got[i], want[i])
			}
		}
	}
}

// TestGenerateOrderedEmitError: a failing emit stops the run and the
// error comes back wrapped.
func TestGenerateOrderedEmitError(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 50)
	boom := fmt.Errorf("disk full")
	n := 0
	err := GenerateOrdered(cat, SimConfig{Events: 5000, Cookies: 100, Seed: 2},
		PipelineConfig{Generators: 4, Window: 128}, func(c logs.Click) error {
			n++
			if n == 100 {
				return boom
			}
			return nil
		})
	if err == nil {
		t.Fatal("emit error should surface")
	}
	if n != 100 {
		t.Errorf("emit called %d times after error, want exactly 100", n)
	}
}

// TestGenWindowsPartition: the window list tiles [0, events) exactly,
// per source, in canonical seq order.
func TestGenWindowsPartition(t *testing.T) {
	for _, tc := range []struct{ events, window int }{
		{0, 100}, {1, 100}, {100, 100}, {101, 100}, {9999, 256},
	} {
		wins := genWindows(tc.events, tc.window)
		perSource := map[logs.Source]int{}
		for i, w := range wins {
			if w.seq != i {
				t.Fatalf("events=%d: seq %d at position %d", tc.events, w.seq, i)
			}
			if w.lo != perSource[w.source] {
				t.Fatalf("events=%d: window %d starts at %d, want %d",
					tc.events, i, w.lo, perSource[w.source])
			}
			if w.hi <= w.lo || w.hi > tc.events {
				t.Fatalf("events=%d: bad window [%d, %d)", tc.events, w.lo, w.hi)
			}
			perSource[w.source] = w.hi
		}
		for _, src := range sources {
			if tc.events > 0 && perSource[src] != tc.events {
				t.Fatalf("events=%d: %s windows cover %d", tc.events, src, perSource[src])
			}
		}
	}
}

// TestSimulateRangePartition: any partition of the event index space
// concatenates to the unsplit source stream — the demand-level face of
// the leapfrog contract.
func TestSimulateRangePartition(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 80)
	cfg := SimConfig{Events: 4000, Cookies: 500, Seed: 77}
	for _, src := range sources {
		sp := sampler(t, cat, cfg, src)
		collect := func(lo, hi int, out []ClickRef) []ClickRef {
			sp.generateRefs(lo, hi, func(r ClickRef) bool {
				out = append(out, r)
				return true
			})
			return out
		}
		full := collect(0, cfg.Events, nil)
		// Uneven boundaries, including an empty segment.
		bounds := []int{0, 1, 1, 137, 1000, 2048, 3999, 4000}
		var got []ClickRef
		for i := 1; i < len(bounds); i++ {
			got = collect(bounds[i-1], bounds[i], got)
		}
		if len(got) != len(full) {
			t.Fatalf("%s: concatenation has %d clicks, want %d", src, len(got), len(full))
		}
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("%s: click %d differs across partition", src, i)
			}
		}
	}
}

// TestSimulateRangeBeyondEvents: the stream extends deterministically
// past cfg.Events.
func TestSimulateRangeBeyondEvents(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 30)
	cfg := SimConfig{Events: 100, Cookies: 50, Seed: 6}
	run := func() []ClickRef {
		var out []ClickRef
		sampler(t, cat, cfg, logs.Browse).generateRefs(90, 300, func(r ClickRef) bool {
			out = append(out, r)
			return true
		})
		return out
	}
	a, b := run(), run()
	if len(a) != 210 {
		t.Fatalf("got %d clicks, want 210", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("extended stream not deterministic at %d", i)
		}
	}
}
