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
	canonical := fmt.Sprintf("v1|seed=%d|entities=%d|dirhosts=%d|catalog=%d|events=%d|extract=%t",
		r.Seed, r.Entities, r.DirectoryHosts, r.CatalogN, r.EventsPerSource, r.UseExtraction)
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:8])
}

// TestHashMatchesFmtOracle: over thousands of configurations (zero
// fields that take defaults, negative and extreme values), Hash gives
// the fmt form's fingerprint, so every ETag stays what it was.
func TestHashMatchesFmtOracle(t *testing.T) {
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
	for i := 0; i < 4000; i++ {
		c := Config{
			Seed: rng.Uint64() >> uint(rng.Intn(64)), Entities: field(), DirectoryHosts: field(),
			CatalogN: field(), EventsPerSource: field(), UseExtraction: rng.Intn(2) == 0, Workers: field(),
		}
		if got, want := c.Hash(), fmtHash(c); got != want {
			t.Fatalf("%+v: Hash = %s, want %s", c, got, want)
		}
	}
}
