package index

import (
	"sync"

	"repro/internal/entity"
)

// ShardedBuilder is a Builder behind one mutex, for producers keyed by
// host name that add from several goroutines. Producers that know
// which goroutine owns which hosts should register rows with
// Builder.Site and add to them lock-free instead.
type ShardedBuilder struct {
	mu sync.Mutex
	b  *Builder
}

// NewShardedBuilder returns a concurrency-safe builder. The shard count
// is ignored: one row per host needs no host sharding.
//
//repro:testonly-ok bench/trace.go times the sharded build; ROADMAP item 6 retires that caller
func NewShardedBuilder(domain entity.Domain, attr entity.Attr, numEntities, _ int) *ShardedBuilder {
	return &ShardedBuilder{b: NewBuilder(domain, attr, numEntities)}
}

// Add records a (host, entity) mention. Safe for concurrent use.
//
//repro:testonly-ok bench/trace.go; ROADMAP item 6 retires that caller
func (sb *ShardedBuilder) Add(host string, id int) {
	sb.mu.Lock()
	sb.b.Add(host, id)
	sb.mu.Unlock()
}

// AddPage increments host's attribute-page counter. Safe for concurrent use.
//
//repro:testonly-ok bench/trace.go; ROADMAP item 6 retires that caller
func (sb *ShardedBuilder) AddPage(host string) {
	sb.mu.Lock()
	sb.b.AddPage(host)
	sb.mu.Unlock()
}

// Build finalizes the index. Callers must ensure no concurrent Adds are
// in flight. The error is always nil.
//
//repro:testonly-ok bench/trace.go; ROADMAP item 6 retires that caller
func (sb *ShardedBuilder) Build() (*Index, error) { return sb.b.Build(), nil }
