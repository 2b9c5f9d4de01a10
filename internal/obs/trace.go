package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing records stage spans into a bounded ring buffer for offline
// inspection as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// The contract that lets spans live on hot paths: tracing is disabled
// by default, and a disabled span is a nop resolved by ONE atomic
// pointer load — no time syscall, no branch on configuration structs,
// no allocation. Enabled spans cost two monotonic clock reads and a
// handful of atomic stores into a preallocated slot; the ring
// overwrites oldest records when full, so memory stays bounded no
// matter how long the process runs.
//
// Span names are interned up front via RegisterSpan (package-level
// vars at instrumentation sites), so recording stores an int32 id,
// never a string — keeping slots fixed-size and the hot path
// pointer-free.

// curRing is the active trace ring; nil means tracing is disabled.
var curRing atomic.Pointer[ring]

// spanNames interns span names to ids. Registration is rare (package
// init); lookups at dump time are read-locked.
var spanNames struct {
	sync.RWMutex
	byName map[string]int32
	names  []string // id-1 → name
}

// slot is one recorded span. All fields are atomics with a
// generation-based seqlock (seq) so dump-time readers racing the
// overwriting writer detect torn records and skip them instead of
// reporting garbage — and the race detector sees only atomic ops.
type slot struct {
	seq   atomic.Uint64 // 2*gen+1 while writing, 2*gen+2 when complete
	id    atomic.Int32  // interned span name id
	tid   atomic.Int32  // logical thread (worker index) for trace rows
	start atomic.Int64  // ns since ring epoch
	dur   atomic.Int64  // ns
}

type ring struct {
	epoch time.Time // monotonic base for span timestamps
	slots []slot
	next  atomic.Uint64 // total spans ever recorded; slot = next % len
}

// SpanKind is an interned span name, registered once at an
// instrumentation site and used to start spans with zero per-span
// name handling.
type SpanKind struct {
	id int32
}

// RegisterSpan interns name and returns its kind. Safe for concurrent
// use; repeated registration of the same name returns the same kind.
func RegisterSpan(name string) *SpanKind {
	spanNames.Lock()
	defer spanNames.Unlock()
	if spanNames.byName == nil {
		spanNames.byName = make(map[string]int32)
	}
	if id, ok := spanNames.byName[name]; ok {
		return &SpanKind{id: id}
	}
	spanNames.names = append(spanNames.names, name)
	id := int32(len(spanNames.names)) // ids from 1; 0 is the disabled sentinel
	spanNames.byName[name] = id
	return &SpanKind{id: id}
}

// Span is an in-flight measurement. The zero Span (id 0) is the
// disabled sentinel: End on it returns immediately.
type Span struct {
	id    int32
	tid   int32
	start int64
}

// Start begins a span of this kind on logical thread 0. When tracing
// is disabled this is a single atomic load and returns the nop span.
//
//repro:noalloc
func (k *SpanKind) Start() Span { return k.StartT(0) }

// StartT begins a span on logical thread tid (e.g. a pipeline worker
// index), which becomes the row the span renders on in the trace UI.
//
//repro:noalloc
func (k *SpanKind) StartT(tid int) Span {
	r := curRing.Load()
	if r == nil {
		return Span{}
	}
	return Span{id: k.id, tid: int32(tid), start: int64(time.Since(r.epoch))}
}

// StartSpan begins a span with a dynamic name. Disabled cost is the
// same single atomic load; enabled cost adds the intern lookup, so
// hot paths should prefer RegisterSpan + Start.
func StartSpan(name string) Span {
	r := curRing.Load()
	if r == nil {
		return Span{}
	}
	spanNames.RLock()
	id, ok := spanNames.byName[name]
	spanNames.RUnlock()
	if !ok {
		id = RegisterSpan(name).id
	}
	return Span{id: id, tid: 0, start: int64(time.Since(r.epoch))}
}

// End completes the span, claiming the next ring slot. Nop (one
// branch) if the span was started while tracing was disabled; if
// tracing was disabled in between, the record is dropped.
//
//repro:noalloc
func (s Span) End() {
	if s.id == 0 {
		return
	}
	r := curRing.Load()
	if r == nil {
		return
	}
	end := int64(time.Since(r.epoch))
	n := r.next.Add(1) - 1
	sl := &r.slots[n%uint64(len(r.slots))]
	gen := n / uint64(len(r.slots))
	sl.seq.Store(2*gen + 1) // odd: write in progress
	sl.id.Store(s.id)
	sl.tid.Store(s.tid)
	sl.start.Store(s.start)
	sl.dur.Store(end - s.start)
	sl.seq.Store(2*gen + 2) // even: complete at generation gen
}

// defaultTraceCapacity bounds the ring when EnableTracing is called
// with capacity <= 0: 64Ki spans ≈ 2.5 MiB.
const defaultTraceCapacity = 1 << 16

// EnableTracing starts span recording into a fresh ring of the given
// capacity (spans; <=0 selects the default). Spans started before the
// call record nothing.
func EnableTracing(capacity int) {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	curRing.Store(&ring{epoch: time.Now(), slots: make([]slot, capacity)})
}

// DisableTracing stops recording and releases the ring.
func DisableTracing() { curRing.Store(nil) }

// WriteTrace dumps the ring as a Chrome trace-event JSON array
// (complete "X" events with microsecond timestamps), loadable in
// chrome://tracing or Perfetto. Records being overwritten mid-dump
// are detected via their seqlock and skipped.
func WriteTrace(w io.Writer) error {
	r := curRing.Load()
	if r == nil {
		return fmt.Errorf("obs: tracing not enabled")
	}
	spanNames.RLock()
	names := make([]string, len(spanNames.names))
	copy(names, spanNames.names)
	spanNames.RUnlock()

	total := r.next.Load()
	n := total
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	wrote := false
	for i := uint64(0); i < uint64(len(r.slots)) && i < n; i++ {
		sl := &r.slots[i]
		seq1 := sl.seq.Load()
		if seq1 == 0 || seq1%2 == 1 {
			continue // never written, or write in progress
		}
		id := sl.id.Load()
		tid := sl.tid.Load()
		start := sl.start.Load()
		dur := sl.dur.Load()
		if sl.seq.Load() != seq1 {
			continue // torn by a concurrent overwrite
		}
		if id < 1 || int(id) > len(names) {
			continue
		}
		if wrote {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		wrote = true
		if _, err := fmt.Fprintf(bw,
			`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}`,
			names[id-1], tid, float64(start)/1e3, float64(dur)/1e3); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTraceFile dumps the ring to path (see WriteTrace).
func WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
