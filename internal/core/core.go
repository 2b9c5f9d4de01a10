// Package core is the public façade of the reproduction: a Study wires
// the synthetic-web, extraction, demand and analysis substrates together
// and exposes one method per paper artifact (Figures 1–9, Tables 1–2),
// plus an experiment registry that runs them all concurrently.
//
// A Study is a concurrent artifact engine. Each expensive artifact
// class (synthetic webs, entity–host indexes, demand catalogs, demand
// aggregates, the review classifier) lives in its own per-key memo
// cache (internal/memo) with singleflight semantics: the first caller
// for a key builds it, duplicate callers block on the in-flight build,
// and callers for distinct keys — different domains, different sites —
// build in parallel. There is no global lock; all Study methods are
// safe for arbitrary concurrent use.
//
// The experiment registry (registry.go) names every paper artifact as a
// unit and Study.RunAll fans them — and the artifact builds underneath
// them — across a bounded worker pool, so one call reproduces the whole
// paper while saturating the machine. Every result is deterministic in
// the Study's seed regardless of worker count: artifact builders derive
// independent RNG streams from (seed, key) salts, so build order and
// interleaving never influence output.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/demand"
	"repro/internal/entity"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/logs"
	"repro/internal/memo"
	"repro/internal/synth"
)

// graphKey identifies one cached entity–site graph.
type graphKey struct {
	d entity.Domain
	a entity.Attr
}

// Config sizes a Study. Zero values take defaults scaled for a laptop
// run of every experiment in minutes.
type Config struct {
	// Seed drives all generation; equal seeds give identical results.
	Seed uint64
	// Entities and DirectoryHosts size each domain's synthetic web.
	Entities       int
	DirectoryHosts int
	// CatalogN sizes the §4 demand catalogs (per site).
	CatalogN int
	// EventsPerSource is the simulated click count per traffic source.
	EventsPerSource int
	// UseExtraction runs the full render → parse → extract pipeline to
	// build indexes; false uses the model's direct decisions (identical
	// output, no HTML work — see synth.DirectIndexes).
	UseExtraction bool
	// Workers bounds intra-artifact concurrency: extraction workers and
	// the demand pipeline's generator workers and aggregation shards
	// (<= 0: GOMAXPROCS). Results do not depend on it.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Entities == 0 {
		c.Entities = synth.ScaleDefault.Entities
	}
	if c.DirectoryHosts == 0 {
		c.DirectoryHosts = synth.ScaleDefault.DirectoryHosts
	}
	if c.CatalogN == 0 {
		c.CatalogN = 30000
	}
	if c.EventsPerSource == 0 {
		c.EventsPerSource = 20 * c.CatalogN
	}
	return c
}

// HashVersion leads the canonical encoding that Config.Hash digests.
// Bump it whenever the bytes a configuration produces change: every
// hash, and so every served ETag, then changes with them, and no cache
// keeps serving an old body under a tag that now names a new one.
const HashVersion = "v1"

// Hash returns a stable hex fingerprint of the result-determining part
// of the configuration. Two Configs with equal hashes produce
// byte-identical experiment results: every artifact builder derives its
// RNG streams from (Seed, key) salts, so Workers — which only changes
// scheduling — is deliberately excluded. The serving layer derives HTTP
// ETags from this hash, which is what makes aggressive response caching
// sound. The leading HashVersion versions the canonical encoding itself.
func (c Config) Hash() string {
	r := c.withDefaults()
	b := make([]byte, 0, 128)
	b = strconv.AppendUint(append(append(b, HashVersion...), "|seed="...), r.Seed, 10)
	b = strconv.AppendInt(append(b, "|entities="...), int64(r.Entities), 10)
	b = strconv.AppendInt(append(b, "|dirhosts="...), int64(r.DirectoryHosts), 10)
	b = strconv.AppendInt(append(b, "|catalog="...), int64(r.CatalogN), 10)
	b = strconv.AppendInt(append(b, "|events="...), int64(r.EventsPerSource), 10)
	b = strconv.AppendBool(append(b, "|extract="...), r.UseExtraction)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Study runs the paper's experiments over one configuration. All
// methods are safe for concurrent use; each artifact key is built
// exactly once.
type Study struct {
	cfg Config

	webs     memo.Map[entity.Domain, *synth.Web]
	indexes  memo.Map[entity.Domain, map[entity.Attr]*index.Index]
	catalogs memo.Map[logs.Site, *demand.Catalog]
	demands  memo.Map[logs.Site, map[logs.Source][]demand.Estimate]
	graphs   memo.Map[graphKey, *graph.Bipartite]
	reviewNB memo.Cell[*classify.NaiveBayes]

	builds buildCounters
}

// buildCounters tracks how many times each artifact class ran its
// builder — observability for the singleflight guarantee.
type buildCounters struct {
	webs, indexes, catalogs, demands, graphs, classifiers atomic.Int64
}

// BuildStats is a snapshot of per-class artifact build counts. Under
// memoization each key builds exactly once, however many goroutines ask.
type BuildStats struct {
	Webs, Indexes, Catalogs, Demands, Graphs, Classifiers int
}

// BuildStats reports how many artifact builders have run so far.
func (s *Study) BuildStats() BuildStats {
	return BuildStats{
		Webs:        int(s.builds.webs.Load()),
		Indexes:     int(s.builds.indexes.Load()),
		Catalogs:    int(s.builds.catalogs.Load()),
		Demands:     int(s.builds.demands.Load()),
		Graphs:      int(s.builds.graphs.Load()),
		Classifiers: int(s.builds.classifiers.Load()),
	}
}

// NewStudy returns a Study over cfg.
func NewStudy(cfg Config) *Study {
	return &Study{cfg: cfg.withDefaults()}
}

// Config returns the resolved configuration.
func (s *Study) Config() Config { return s.cfg }
