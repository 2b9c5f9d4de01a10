package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceEvent mirrors the Chrome trace-event fields we emit.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

func TestSpanDisabledIsNop(t *testing.T) {
	DisableTracing()
	k := RegisterSpan("disabled/test")
	s := k.Start()
	if s.id != 0 {
		t.Fatalf("disabled span has id %d, want 0", s.id)
	}
	s.End() // must not panic or record
	StartSpan("disabled/dynamic").End()
	if curRing.Load() != nil {
		t.Fatal("tracing unexpectedly enabled")
	}
	if err := WriteTrace(os.NewFile(0, "")); err == nil {
		t.Fatal("WriteTrace with tracing disabled should error")
	}
}

func TestSpanRecordAndDump(t *testing.T) {
	EnableTracing(64)
	defer DisableTracing()
	k := RegisterSpan("stage/fold")
	s := k.StartT(3)
	time.Sleep(time.Millisecond)
	s.End()
	StartSpan("artifact/web").End()

	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not valid JSON: %v\n%s", err, raw)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	byName := map[string]traceEvent{}
	for _, e := range events {
		if e.Ph != "X" || e.Pid != 1 {
			t.Errorf("event %+v: want ph=X pid=1", e)
		}
		byName[e.Name] = e
	}
	fold, ok := byName["stage/fold"]
	if !ok {
		t.Fatalf("stage/fold missing: %+v", events)
	}
	if fold.Tid != 3 {
		t.Errorf("stage/fold tid = %d, want 3", fold.Tid)
	}
	if fold.Dur < 900 { // slept 1ms ≈ 1000µs
		t.Errorf("stage/fold dur = %vµs, want ≥900", fold.Dur)
	}
	if _, ok := byName["artifact/web"]; !ok {
		t.Errorf("artifact/web missing: %+v", events)
	}
}

func TestRegisterSpanIdempotent(t *testing.T) {
	a := RegisterSpan("idem/span")
	b := RegisterSpan("idem/span")
	if a.id != b.id {
		t.Fatalf("same name got ids %d and %d", a.id, b.id)
	}
}

func TestStartSpanInternsDynamicName(t *testing.T) {
	EnableTracing(16)
	defer DisableTracing()
	s := StartSpan("dyn/first-use")
	if s.id == 0 {
		t.Fatal("enabled StartSpan returned nop span")
	}
	s2 := StartSpan("dyn/first-use")
	if s2.id != s.id {
		t.Fatalf("dynamic name interned twice: %d vs %d", s.id, s2.id)
	}
	s.End()
	s2.End()
}

func TestRingWrapsBounded(t *testing.T) {
	EnableTracing(8)
	defer DisableTracing()
	k := RegisterSpan("wrap/span")
	for i := 0; i < 100; i++ {
		k.Start().End()
	}
	var b strings.Builder
	if err := WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("invalid JSON after wrap: %v", err)
	}
	if len(events) > 8 {
		t.Fatalf("ring of 8 produced %d events", len(events))
	}
	if len(events) == 0 {
		t.Fatal("ring produced no events")
	}
}

func TestTraceConcurrentWritersAndDump(t *testing.T) {
	// Spans recording while a dump runs: the seqlock must keep output
	// valid JSON with no torn records (-race exercises the atomics).
	EnableTracing(32)
	defer DisableTracing()
	k := RegisterSpan("conc/span")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					k.StartT(w).End()
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := WriteTrace(&b); err != nil {
			t.Fatal(err)
		}
		var events []traceEvent
		if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
			t.Fatalf("dump %d: invalid JSON: %v", i, err)
		}
		for _, e := range events {
			if e.Name != "conc/span" {
				t.Fatalf("dump %d: torn record surfaced: %+v", i, e)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestEnableTracingDefaultCapacity(t *testing.T) {
	EnableTracing(0)
	defer DisableTracing()
	r := curRing.Load()
	if r == nil || len(r.slots) != defaultTraceCapacity {
		t.Fatalf("default capacity not applied")
	}
}

func TestEndAfterDisableDrops(t *testing.T) {
	EnableTracing(8)
	k := RegisterSpan("drop/span")
	s := k.Start()
	DisableTracing()
	s.End() // must not panic; record is dropped
}

func TestWriteTraceFileError(t *testing.T) {
	EnableTracing(8)
	defer DisableTracing()
	if err := WriteTraceFile(filepath.Join(t.TempDir(), "no", "such", "dir", "t.json")); err == nil {
		t.Fatal("expected error for unwritable path")
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	DisableTracing()
	k := RegisterSpan("bench/disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Start().End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	EnableTracing(1 << 12)
	defer DisableTracing()
	k := RegisterSpan("bench/enabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Start().End()
	}
}

func TestSpanZeroAlloc(t *testing.T) {
	// The 0-alloc contract for instrumentation: disabled and enabled
	// span paths both allocate nothing.
	DisableTracing()
	k := RegisterSpan("alloc/span")
	if n := testing.AllocsPerRun(1000, func() { k.Start().End() }); n != 0 {
		t.Fatalf("disabled span allocates %v/op", n)
	}
	EnableTracing(1 << 10)
	defer DisableTracing()
	if n := testing.AllocsPerRun(1000, func() { k.StartT(2).End() }); n != 0 {
		t.Fatalf("enabled span allocates %v/op", n)
	}
}

func TestCounterHistogramZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.ShardedCounter("alloc_total", "alloc", 8)
	h := r.Histogram("alloc_seconds", "alloc", 1e-9)
	if n := testing.AllocsPerRun(1000, func() {
		c.AddShard(3, 17)
		c.Add(1)
	}); n != 0 {
		t.Fatalf("counter allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("histogram allocates %v/op", n)
	}
}
