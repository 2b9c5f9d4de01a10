package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"repro/internal/core"
)

// ETagFor derives the deterministic entity tag for one endpoint of one
// study configuration. It hashes (config hash, endpoint, format) — not
// the response body — which is sound because every response is a pure
// function of those inputs. Deriving the tag from the key instead of
// the bytes lets If-None-Match revalidations be answered 304 without
// touching the study cache or building any body at all.
//
//repro:testonly-ok bench/serve.go checks served ETags against it; ROADMAP item 6 retires that caller
func ETagFor(cfg core.Config, endpoint, format string) string {
	return etagOf(cfg.Hash(), endpoint, format)
}

// etagOf is ETagFor over an already computed config hash.
func etagOf(configHash, endpoint, format string) string {
	sum := sha256.Sum256([]byte(configHash + "|" + endpoint + "|" + format))
	return `"` + hex.EncodeToString(sum[:8]) + `"`
}

// etagMatch reports whether an If-None-Match header value matches etag.
// It handles the wildcard "*", comma-separated candidate lists, and
// weak validators (W/ prefixes compare by opaque tag, per RFC 9110
// §8.8.3.2's weak comparison, which is what If-None-Match uses).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	want := strings.TrimPrefix(etag, "W/")
	for _, candidate := range strings.Split(header, ",") {
		c := strings.TrimPrefix(strings.TrimSpace(candidate), "W/")
		if c == want {
			return true
		}
	}
	return false
}
