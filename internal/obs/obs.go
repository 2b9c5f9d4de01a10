// Package obs is the process-wide observability substrate: one metrics
// registry shared by every subsystem (demand pipeline, segment store,
// artifact engine, HTTP serving layer), built from lock-free primitives
// whose hot-path cost is a handful of atomic adds and — crucially —
// zero allocations per operation.
//
// The design matches the codebase's performance ethos. The layers being
// instrumented spent several PRs becoming allocation-free and
// bandwidth-bound, so instrumentation must be provably near-zero on
// those paths:
//
//   - Counter and Gauge update via atomic adds on cache-line-padded
//     cells. Writers that know their worker index (pipeline shards)
//     write disjoint padded cells via AddShard, so concurrent folds
//     never bounce a metric cache line between cores — and the
//     per-cell values double as the shard-imbalance signal.
//   - Histogram keeps fixed log2 buckets (one atomic add per
//     observation, no sample retention): memory is constant whatever
//     the observation count, and the exposition's cumulative le
//     buckets are what a scraper reads quantiles from.
//   - Spans (trace.go) are disabled-by-default nops resolved by a
//     single atomic pointer load; enabling tracing records into a
//     bounded ring buffer dumpable as Chrome trace-event JSON.
//
// Metrics register on a Registry — usually the package-level Default —
// by name plus static labels, get-or-create, so package-level
// instrumentation can initialize lazily from any entry point without
// double-registration. Registry.WritePrometheus emits the standard
// text exposition format (served by cmd/serve's GET /metrics);
// Registry.Snapshot returns the same state as values for JSON
// consumers (cmd/clicklog -json).
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. Library instrumentation
// (internal/demand, internal/seg, internal/core) registers here;
// cmd/serve exposes it alongside its own per-server registry.
var Default = NewRegistry()

// Label is one static metric label, fixed at registration.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// cell is a cache-line-padded counter slot: concurrent writers on
// distinct cells never share a line, so sharded hot-path updates scale
// instead of bouncing one line between cores.
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// icell is cell for signed gauge arithmetic.
type icell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing metric over padded atomic
// shards. Add and Inc are safe for arbitrary concurrent use (they
// target shard 0 — a single uncontended atomic add for the
// batch-amortized call sites this codebase instruments); writers with
// a natural worker index use AddShard to keep concurrent updates on
// disjoint cache lines and to attribute the count to that shard.
type Counter struct {
	meta  *metric
	cells []cell
}

// Add increments the counter by n.
//
//repro:noalloc
func (c *Counter) Add(n uint64) { c.cells[0].v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.cells[0].v.Add(1) }

// AddShard increments shard i's padded cell by n. The shard index is
// masked into range, so any non-negative worker index is valid.
//
//repro:noalloc
func (c *Counter) AddShard(i int, n uint64) {
	c.cells[i&(len(c.cells)-1)].v.Add(n)
}

// Value returns the counter's total across shards.
func (c *Counter) Value() uint64 {
	var t uint64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Shards returns the shard cell count (a power of two).
//
//repro:testonly-ok demand's obs_alloc_test.go sums the shards
func (c *Counter) Shards() int { return len(c.cells) }

// ShardValue returns shard i's share of the total — the imbalance
// signal for sharded writers.
//
//repro:testonly-ok demand's obs_alloc_test.go sums the shards
func (c *Counter) ShardValue(i int) uint64 {
	return c.cells[i&(len(c.cells)-1)].v.Load()
}

// Gauge is a settable level metric (queue depth, cache occupancy) over
// the same padded cells as Counter. Add/Sub/AddShard are safe for
// arbitrary concurrent use; Set assumes one writer (it rewrites every
// cell) and is meant for scrape-time levels.
type Gauge struct {
	meta  *metric
	cells []icell
}

// Set sets the gauge to v. Single-writer: it stores v in cell 0 and
// zeroes the rest, racing concurrent AddShard writers.
func (g *Gauge) Set(v int64) {
	g.cells[0].v.Store(v)
	for i := 1; i < len(g.cells); i++ {
		g.cells[i].v.Store(0)
	}
}

// Value returns the gauge's total across cells.
func (g *Gauge) Value() int64 {
	var t int64
	for i := range g.cells {
		t += g.cells[i].v.Load()
	}
	return t
}

// metricKind discriminates the registry's entry types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered entry: identity plus exactly one primitive.
type metric struct {
	name     string
	help     string
	kind     metricKind
	labels   []Label // sorted by key
	perShard bool    // counters: expose per-shard series with a shard label
	c        *Counter
	g        *Gauge
	h        *Histogram
}

// Registry holds named metrics and renders them. Registration
// (get-or-create by name + labels) takes a mutex; reads and updates of
// the returned primitives never do.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
	order []*metric // registration order; families group by first appearance
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// seriesKey renders the unique identity of (name, labels).
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sortLabels returns labels sorted by key (copied; inputs are small).
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// register is the get-or-create core: an existing entry with the same
// (name, labels) is returned if its kind matches; a mismatch is a
// programming error and panics.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) (*metric, bool) {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", key, m.kind, kind))
		}
		return m, true
	}
	m := &metric{name: name, help: help, kind: kind, labels: labels}
	r.byKey[key] = m
	r.order = append(r.order, m)
	return m, false
}

// nextPow2 rounds n up to a power of two in [1, 1<<20].
func nextPow2(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	return 1 << bits.Len(uint(n-1))
}

// Counter returns (creating once) the named counter with one padded
// cell — the right shape for batch-amortized call sites.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.counter(name, help, 1, false, labels)
}

// ShardedCounter returns (creating once) the named counter with
// `shards` padded cells (rounded up to a power of two). Its exposition
// emits one series per non-zero shard with a "shard" label, so the
// per-worker distribution — and any imbalance — is visible, not just
// the total.
func (r *Registry) ShardedCounter(name, help string, shards int, labels ...Label) *Counter {
	return r.counter(name, help, shards, true, labels)
}

func (r *Registry) counter(name, help string, shards int, perShard bool, labels []Label) *Counter {
	m, existed := r.register(name, help, kindCounter, labels)
	if !existed {
		m.perShard = perShard
		m.c = &Counter{meta: m, cells: make([]cell, nextPow2(shards))}
	}
	return m.c
}

// Gauge returns (creating once) the named gauge with one padded cell.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m, existed := r.register(name, help, kindGauge, labels)
	if !existed {
		m.g = &Gauge{meta: m, cells: make([]icell, 1)}
	}
	return m.g
}

// Histogram returns (creating once) the named log2 histogram. scale
// converts raw observed units to exposed units at render time — 1e-9
// for nanosecond observations exposed as Prometheus-conventional
// seconds, 1 for sizes — without any arithmetic on the observe path.
func (r *Registry) Histogram(name, help string, scale float64, labels ...Label) *Histogram {
	m, existed := r.register(name, help, kindHistogram, labels)
	if !existed {
		if scale == 0 {
			scale = 1
		}
		m.h = &Histogram{meta: m, scale: scale}
	}
	return m.h
}

// Sample is one rendered metric value for JSON consumers: the fully
// labeled series name, the metric kind, and the current value.
// Histograms contribute two samples, <name>_count and <name>_sum.
type Sample struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
}

// Snapshot renders every registered series to values, in registration
// order. Counters render their cross-shard total.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	ms := make([]*metric, len(r.order))
	copy(ms, r.order)
	r.mu.Unlock()
	var out []Sample
	for _, m := range ms {
		key := seriesKey(m.name, m.labels)
		switch m.kind {
		case kindCounter:
			out = append(out, Sample{Name: key, Kind: "counter", Value: float64(m.c.Value())})
		case kindGauge:
			out = append(out, Sample{Name: key, Kind: "gauge", Value: float64(m.g.Value())})
		case kindHistogram:
			count, sum := m.h.Count(), m.h.Sum()
			out = append(out,
				Sample{Name: seriesKey(m.name+"_count", m.labels), Kind: "histogram", Value: float64(count)},
				Sample{Name: seriesKey(m.name+"_sum", m.labels), Kind: "histogram", Value: float64(sum) * m.h.scale},
			)
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE pair per
// metric family (families ordered by first registration, series by
// registration), counters and gauges as single values, histograms as
// cumulative le buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]*metric, len(r.order))
	copy(ms, r.order)
	r.mu.Unlock()

	// Group series into families by name, preserving first-appearance
	// order, so multi-label families render under one header.
	families := make(map[string][]*metric, len(ms))
	var names []string
	for _, m := range ms {
		if _, ok := families[m.name]; !ok {
			names = append(names, m.name)
		}
		families[m.name] = append(families[m.name], m)
	}
	for _, name := range names {
		fam := families[name]
		if fam[0].help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, fam[0].help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fam[0].kind); err != nil {
			return err
		}
		for _, m := range fam {
			if err := writeSeries(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// withLabel renders a series name with one extra label appended after
// the metric's static labels.
func withLabel(name string, labels []Label, key, value string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Key: key, Value: value})
	return seriesKey(name, all)
}

func writeSeries(w io.Writer, m *metric) error {
	switch m.kind {
	case kindCounter:
		if m.perShard {
			any := false
			for i := range m.c.cells {
				if v := m.c.cells[i].v.Load(); v != 0 {
					any = true
					if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(m.name, m.labels, "shard", fmt.Sprint(i)), v); err != nil {
						return err
					}
				}
			}
			if !any {
				_, err := fmt.Fprintf(w, "%s 0\n", seriesKey(m.name, m.labels))
				return err
			}
			return nil
		}
		_, err := fmt.Fprintf(w, "%s %d\n", seriesKey(m.name, m.labels), m.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesKey(m.name, m.labels), m.g.Value())
		return err
	default:
		return m.h.writePrometheus(w, m.name, m.labels)
	}
}
