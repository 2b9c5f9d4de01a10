package serve

import (
	"net/url"
	"testing"
	"time"
)

func TestParseStudyKeyDefaults(t *testing.T) {
	k, err := parseStudyKey(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if k != (StudyKey{Scale: "small", Seed: 1}) {
		t.Errorf("defaults: %+v", k)
	}
	k, err = parseStudyKey(url.Values{"scale": {"default"}, "seed": {"42"}, "extraction": {"true"}})
	if err != nil {
		t.Fatal(err)
	}
	if k != (StudyKey{Scale: "default", Seed: 42, Extraction: true}) {
		t.Errorf("parsed: %+v", k)
	}
	if k.String() != "default/seed=42/extraction=true" {
		t.Errorf("String: %q", k.String())
	}
	for _, bad := range []url.Values{
		{"scale": {"huge"}},
		{"seed": {"abc"}},
		{"seed": {"-3"}},
		{"extraction": {"probably"}},
	} {
		if _, err := parseStudyKey(bad); err == nil {
			t.Errorf("parseStudyKey(%v) should fail", bad)
		}
	}
}

func TestConfigForScales(t *testing.T) {
	cfg := configFor(StudyKey{Scale: "small", Seed: 7}, 3)
	if cfg.Entities != 2000 || cfg.Seed != 7 || cfg.Workers != 3 || cfg.CatalogN != 2000 {
		t.Errorf("configFor small: %+v", cfg)
	}
	if configFor(StudyKey{Scale: "large", Seed: 7}, 0).Entities <= cfg.Entities {
		t.Error("large scale should size more entities than small")
	}
}

func TestStudyCacheLRU(t *testing.T) {
	c := newStudyCache(2, 0, 3, time.Second)
	k1 := StudyKey{Scale: "small", Seed: 1}
	k2 := StudyKey{Scale: "small", Seed: 2}
	k3 := StudyKey{Scale: "small", Seed: 3}

	e1 := c.get(k1)
	if c.get(k1) != e1 {
		t.Error("repeated get returned a different entry")
	}
	c.get(k2)
	c.get(k1) // bump k1 to most-recent: k2 is now the eviction candidate
	c.get(k3) // evicts k2
	entries, evictions := c.snapshot()
	if evictions != 1 {
		t.Errorf("evictions %d, want 1", evictions)
	}
	if len(entries) != 2 || entries[0].key != k3 || entries[1].key != k1 {
		got := make([]StudyKey, len(entries))
		for i, e := range entries {
			got[i] = e.key
		}
		t.Errorf("cached keys %v, want [k3 k1]", got)
	}
	// Re-inserting the evicted key creates a fresh entry (cold caches).
	if c.get(k2).study == nil {
		t.Error("recreated entry has no study")
	}
}

// TestStaleStoreSeedScanBounded scans seeds the way a client walking
// ?seed= does — three endpoints per seed, ~0.3 MB of bodies per seed as
// at small scale — and checks the stale store keeps at most staleBudget
// bytes, evicting the least recently stored bodies first, and never
// retains a body larger than the budget.
func TestStaleStoreSeedScanBounded(t *testing.T) {
	var st staleStore
	endpoints := []bodyKey{
		{"experiment/fig3", "json"}, {"demand/yelp", "json"}, {"spread/banks/phone", "json"},
	}
	key := func(seed uint64, b bodyKey) staleKey {
		return staleKey{study: StudyKey{Scale: "small", Seed: seed}, body: b}
	}
	const seeds = 200
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, b := range endpoints {
			st.put(key(seed, b), &body{data: make([]byte, 100_000)})
		}
	}
	retained, oldest := 0, uint64(0)
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, b := range endpoints {
			if got, ok := st.get(key(seed, b)); ok {
				retained += len(got.data)
				if oldest == 0 {
					oldest = seed
				}
			} else if oldest != 0 {
				t.Fatalf("seed %d %s evicted after seed %d was kept: not least recently stored first", seed, b.endpoint, oldest)
			}
		}
	}
	if retained > staleBudget {
		t.Errorf("stale store retains %d bytes after a %d-seed scan, budget %d", retained, seeds, staleBudget)
	}
	if oldest <= 1 || retained < staleBudget/2 {
		t.Errorf("retained %d bytes from seed %d on: want the most recent seeds up to the budget", retained, oldest)
	}

	big := key(seeds+1, endpoints[0])
	st.put(big, &body{data: make([]byte, staleBudget+1)})
	if _, ok := st.get(big); ok {
		t.Error("a body larger than the budget was retained")
	}
	if _, ok := st.get(key(seeds, endpoints[2])); !ok {
		t.Error("an oversized body evicted what the store held")
	}
}
