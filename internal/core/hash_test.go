package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/dist"
)

// fmtHash is the fmt.Sprintf form of Config.Hash's canonical string.
func fmtHash(c Config) string {
	r := c.withDefaults()
	canonical := fmt.Sprintf("%s|seed=%d|entities=%d|dirhosts=%d|catalog=%d|events=%d",
		HashVersion, r.Seed, r.Entities, r.DirectoryHosts, r.CatalogN, r.EventsPerSource)
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:8])
}

// randomConfigs draws 4000 configurations: zero fields that take
// defaults, negative and extreme values, either UseExtraction.
func randomConfigs() []Config {
	rng := dist.NewRNG(31)
	field := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return -rng.Intn(1000)
		case 2:
			return int(rng.Uint64() >> 1)
		default:
			return rng.Intn(100000)
		}
	}
	cs := make([]Config, 4000)
	for i := range cs {
		cs[i] = Config{
			Seed: rng.Uint64() >> uint(rng.Intn(64)), Entities: field(), DirectoryHosts: field(),
			CatalogN: field(), EventsPerSource: field(), UseExtraction: rng.Intn(2) == 0, Workers: field(),
		}
	}
	return cs
}

// TestHashMatchesFmtOracle: over thousands of configurations, Hash
// gives the fmt form's fingerprint, so every ETag stays what it was.
func TestHashMatchesFmtOracle(t *testing.T) {
	for _, c := range randomConfigs() {
		if got, want := c.Hash(), fmtHash(c); got != want {
			t.Fatalf("%+v: Hash = %s, want %s", c, got, want)
		}
	}
}

// TestHashIgnoresExecutionOptions: over the same configurations,
// changing UseExtraction or Workers — how a result is built, not which
// result — never changes Hash.
func TestHashIgnoresExecutionOptions(t *testing.T) {
	for _, c := range randomConfigs() {
		h := c.Hash()
		x := c
		x.UseExtraction = !c.UseExtraction
		if got := x.Hash(); got != h {
			t.Fatalf("%+v: flipping UseExtraction changed Hash %s → %s", c, h, got)
		}
		w := c
		w.Workers = c.Workers ^ 0x5a5a
		if got := w.Hash(); got != h {
			t.Fatalf("%+v: Workers %d → %d changed Hash %s → %s", c, c.Workers, w.Workers, h, got)
		}
	}
}
