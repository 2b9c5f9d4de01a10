package serve

import (
	"net/url"
	"testing"
)

func TestParseStudyKeyDefaults(t *testing.T) {
	k, err := parseStudyKey(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if k != (StudyKey{Scale: "small", Seed: 1}) {
		t.Errorf("defaults: %+v", k)
	}
	k, err = parseStudyKey(url.Values{"scale": {"default"}, "seed": {"42"}})
	if err != nil {
		t.Fatal(err)
	}
	if k != (StudyKey{Scale: "default", Seed: 42}) {
		t.Errorf("parsed: %+v", k)
	}
	for _, bad := range []url.Values{
		{"scale": {"huge"}},
		{"seed": {"abc"}},
		{"seed": {"-3"}},
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
	c := newStudyCache(2, 0)
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
// at small scale, each stored under its ETag — and checks the body
// store keeps at most bodyBudget bytes, evicting the least recently
// stored bodies first, and never retains a body larger than the budget.
func TestStaleStoreSeedScanBounded(t *testing.T) {
	var st bodyStore
	endpoints := []string{"experiment/fig3", "demand/yelp", "spread/banks/phone"}
	key := func(seed uint64, endpoint string) string {
		return ETagFor(configFor(StudyKey{Scale: "small", Seed: seed}, 0), endpoint, "json")
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
			if got, _ := st.get(key(seed, b), nil); got != nil {
				retained += len(got.data)
				if oldest == 0 {
					oldest = seed
				}
			} else if oldest != 0 {
				t.Fatalf("seed %d %s evicted after seed %d was kept: not least recently stored first", seed, b, oldest)
			}
		}
	}
	if retained > bodyBudget {
		t.Errorf("body store retains %d bytes after a %d-seed scan, budget %d", retained, seeds, bodyBudget)
	}
	if oldest <= 1 || retained < bodyBudget/2 {
		t.Errorf("retained %d bytes from seed %d on: want the most recent seeds up to the budget", retained, oldest)
	}

	big := key(seeds+1, endpoints[0])
	st.put(big, &body{data: make([]byte, bodyBudget+1)})
	if got, _ := st.get(big, nil); got != nil {
		t.Error("a body larger than the budget was retained")
	}
	if got, _ := st.get(key(seeds, endpoints[2]), nil); got == nil {
		t.Error("an oversized body evicted what the store held")
	}

	// The first body stored under an ETag is the one served.
	first := key(seeds, endpoints[2])
	kept, _ := st.get(first, nil)
	if got := st.put(first, &body{data: []byte("rebuilt")}); got != kept {
		t.Error("put replaced the body stored under an ETag")
	}
}
