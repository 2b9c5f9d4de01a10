package demand

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/logs"
)

// goldenCfg pins the snapshot scenario: a small Yelp catalog and a
// short simulated year.
func goldenCatalogAndCfg(t *testing.T) (*Catalog, SimConfig) {
	t.Helper()
	return testCatalog(t, logs.Yelp, 60), SimConfig{Events: 1200, Cookies: 300, Seed: 42}
}

// goldenStreamHash is the SHA-256 of the canonical serialization (the
// logs TSV wire format, canonical stream order) of the full click
// stream for goldenCatalogAndCfg. It pins the generator's output
// bit-for-bit: the RNG substream derivation, the per-click draw budget
// (clickDraws), the alias-sampling draw order and the catalog
// generation all feed it. If an intentional generator change lands,
// rerun TestGoldenStream — the failure message prints the new hash —
// and update this constant in the same change.
const goldenStreamHash = "e8dbfc3d2e8b965fb6946851dc45ef06e8a7fdc2a2250d8446f559935682c468"

// streamHash canonically serializes clicks (TSV wire format) and
// returns the hex SHA-256.
func streamHash(t *testing.T, clicks []logs.Click) string {
	t.Helper()
	var buf bytes.Buffer
	w := logs.NewWriter(&buf)
	for _, c := range clicks {
		if err := w.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenStream asserts that the serial generator and the parallel
// generators at several worker geometries all produce the pinned click
// stream, and that the pipeline's aggregate of it equals the serial
// fold — the end-to-end determinism contract, run under -race by CI.
func TestGoldenStream(t *testing.T) {
	cat, cfg := goldenCatalogAndCfg(t)

	refs := serialRefs(t, cat, cfg)
	serial := wireClicks(cat, refs)
	if got := streamHash(t, serial); got != goldenStreamHash {
		t.Fatalf("serial stream hash = %s, want %s", got, goldenStreamHash)
	}
	serialAgg := serialFold(cat, refs)

	for _, geom := range []struct{ gens, shards int }{{1, 1}, {8, 4}} {
		var stream []logs.Click
		if err := GenerateOrderedRefs(cat, cfg, PipelineConfig{Generators: geom.gens, Window: 128},
			func(r ClickRef) error {
				stream = append(stream, r.Click(cat))
				return nil
			}); err != nil {
			t.Fatal(err)
		}
		if got := streamHash(t, stream); got != goldenStreamHash {
			t.Fatalf("GenerateOrderedRefs(gens=%d) stream hash = %s, want %s",
				geom.gens, got, goldenStreamHash)
		}
		// The aggregate of the golden stream must equal the serial fold.
		sa, err := GeneratePipeline(cat, cfg, PipelineConfig{
			Generators: geom.gens, Shards: geom.shards, Window: 128,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(estimateBytes(t, serialAgg), estimateBytes(t, sa)) {
			t.Fatalf("GeneratePipeline(%d,%d) aggregate differs from serial fold",
				geom.gens, geom.shards)
		}
	}

	var ordered []logs.Click
	if err := GenerateOrdered(cat, cfg, PipelineConfig{Generators: 6, Window: 100}, func(c logs.Click) error {
		ordered = append(ordered, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := streamHash(t, ordered); got != goldenStreamHash {
		t.Fatalf("GenerateOrdered stream hash = %s, want %s", got, goldenStreamHash)
	}
}
