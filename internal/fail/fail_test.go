package fail

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledIsInert(t *testing.T) {
	p := Register("test/inert")
	// An external FAILPOINTS=random chaos run arms every registered
	// site; this test's premise is a point with nothing armed.
	Disarm("test/inert")
	for i := 0; i < 100; i++ {
		if err := p.Fail(); err != nil {
			t.Fatalf("disarmed Fail returned %v", err)
		}
	}
	var buf bytes.Buffer
	n, err := p.WriteThrough(&buf, []byte("hello"))
	if n != 5 || err != nil || buf.String() != "hello" {
		t.Fatalf("disarmed WriteThrough = %d, %v, %q", n, err, buf.String())
	}
	if p.Hits() != 0 {
		t.Errorf("disarmed point recorded %d hits", p.Hits())
	}
}

// TestDisabledZeroAlloc pins the registry's core contract: a disarmed
// failpoint evaluation allocates nothing — and neither does an armed
// error return (the error is preallocated), so even failing paths stay
// off the allocator.
func TestDisabledZeroAlloc(t *testing.T) {
	p := Register("test/zeroalloc")
	Disarm("test/zeroalloc") // neutralize a FAILPOINTS=random chaos run
	if allocs := testing.AllocsPerRun(1000, func() {
		if p.Fail() != nil {
			t.Fatal("unexpected trigger")
		}
	}); allocs != 0 {
		t.Errorf("disarmed Fail allocates %.1f/op, want 0", allocs)
	}
	p.arm(Action{Kind: Error})
	defer p.cur.Store(nil)
	if allocs := testing.AllocsPerRun(1000, func() {
		if p.Fail() == nil {
			t.Fatal("armed point did not trigger")
		}
	}); allocs != 0 {
		t.Errorf("armed error Fail allocates %.1f/op, want 0", allocs)
	}
}

func TestArmErrorAndHits(t *testing.T) {
	boom := errors.New("boom")
	p := Arm("test/err", Action{Kind: Error, Err: boom})
	defer Disarm("test/err")
	before := p.Hits()
	for i := 0; i < 3; i++ {
		if err := p.Fail(); !errors.Is(err, boom) {
			t.Fatalf("Fail = %v, want boom", err)
		}
	}
	if got := p.Hits() - before; got != 3 {
		t.Errorf("hits = %d, want 3", got)
	}
	Disarm("test/err")
	if err := p.Fail(); err != nil {
		t.Errorf("Fail after Disarm = %v", err)
	}
}

func TestDefaultErrIsErrInjected(t *testing.T) {
	p := Arm("test/definj", Action{Kind: Error})
	defer Disarm("test/definj")
	if err := p.Fail(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Fail = %v, want ErrInjected", err)
	}
}

func TestSkipAndTimes(t *testing.T) {
	p := Arm("test/skiptimes", Action{Kind: Error, Skip: 2, Times: 3})
	defer Disarm("test/skiptimes")
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, p.Fail() != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("eval %d triggered=%v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSleepAddsLatency(t *testing.T) {
	p := Arm("test/sleep", Action{Kind: Sleep, Delay: 20 * time.Millisecond, Times: 1})
	defer Disarm("test/sleep")
	t0 := time.Now()
	if err := p.Fail(); err != nil {
		t.Fatalf("sleep trigger returned error %v", err)
	}
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Errorf("sleep trigger took %v, want >= 20ms", d)
	}
}

func TestPanicTrigger(t *testing.T) {
	p := Arm("test/panic", Action{Kind: Panic, Times: 1})
	defer Disarm("test/panic")
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("armed panic did not panic")
		}
		if !strings.Contains(v.(string), "test/panic") {
			t.Errorf("panic value %q does not name the site", v)
		}
	}()
	p.Fail()
}

func TestShortWrite(t *testing.T) {
	p := Arm("test/shortwrite", Action{Kind: ShortWrite, Bytes: 3, Times: 1})
	defer Disarm("test/shortwrite")
	var buf bytes.Buffer
	n, err := p.WriteThrough(&buf, []byte("hello world"))
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write = %d, %v; want 3, ErrInjected", n, err)
	}
	if buf.String() != "hel" {
		t.Errorf("underlying writer got %q, want the 3-byte prefix", buf.String())
	}
	// Disarmed again (Times: 1): full write passes through.
	n, err = p.WriteThrough(&buf, []byte("lo"))
	if n != 2 || err != nil {
		t.Fatalf("post-trigger write = %d, %v", n, err)
	}
}

func TestWriteThroughError(t *testing.T) {
	p := Arm("test/werr", Action{Kind: Error, Times: 1})
	defer Disarm("test/werr")
	var buf bytes.Buffer
	if n, err := p.WriteThrough(&buf, []byte("x")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("error write = %d, %v", n, err)
	}
	if buf.Len() != 0 {
		t.Error("error trigger wrote bytes")
	}
}

func TestParseAction(t *testing.T) {
	cases := []struct {
		in   string
		want Action
		bad  bool
	}{
		{in: "error", want: Action{Kind: Error}},
		{in: "error:2", want: Action{Kind: Error, Times: 2}},
		{in: "panic", want: Action{Kind: Panic}},
		{in: "sleep:15ms", want: Action{Kind: Sleep, Delay: 15 * time.Millisecond}},
		{in: "sleep:1s:4", want: Action{Kind: Sleep, Delay: time.Second, Times: 4}},
		{in: "shortwrite:8", want: Action{Kind: ShortWrite, Bytes: 8}},
		{in: "shortwrite:0:1", want: Action{Kind: ShortWrite, Times: 1}},
		{in: "nope", bad: true},
		{in: "error:x", bad: true},
		{in: "error:2:3", bad: true},
		{in: "sleep", bad: true},
		{in: "sleep:zzz", bad: true},
		{in: "sleep:-1s", bad: true},
		{in: "shortwrite:-1", bad: true},
		{in: "panic:1", bad: true},
	}
	for _, c := range cases {
		got, err := ParseAction(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseAction(%q) accepted, want error", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseAction(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
}

// TestEnvSpecsArmAtRegister mimics FAILPOINTS parsing then registers a
// new site, which must come up armed.
func TestEnvSpecsArmAtRegister(t *testing.T) {
	parseEnv("test/envsite=error:2; test/other=sleep:1ms", "", "")
	defer parseEnv("", "", "")
	p := Register("test/envsite")
	defer Disarm("test/envsite")
	defer Disarm("test/other")
	if err := p.Fail(); !errors.Is(err, ErrInjected) {
		t.Fatalf("env-armed site Fail = %v", err)
	}
	p.Fail()
	if err := p.Fail(); err != nil {
		t.Errorf("third eval after error:2 = %v, want inert", err)
	}
}

func TestEnvMalformedSpecsSkipped(t *testing.T) {
	parseEnv("garbage;also=bad:action;test/envok=error", "", "")
	defer parseEnv("", "", "")
	p := Register("test/envok")
	defer Disarm("test/envok")
	if err := p.Fail(); err == nil {
		t.Error("well-formed spec next to malformed ones was not applied")
	}
}

// TestRandomModeDeterministic: the chaos schedule is a pure function of
// (seed, site, evaluation index) — two points armed identically trigger
// on identical evaluation indexes.
func TestRandomModeDeterministic(t *testing.T) {
	parseEnv("random", "42", "0.2")
	defer parseEnv("", "", "")
	p1 := Register("test/rand-determ")
	defer Disarm("test/rand-determ")
	record := func(p *Point) []int {
		// Re-arm to reset the evaluation counter.
		p.armRandom(42, 0.2)
		var hits []int
		for i := 0; i < 400; i++ {
			before := p.Hits()
			p.Fail()
			if p.Hits() != before {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := record(p1), record(p1)
	if len(a) == 0 {
		t.Fatal("prob 0.2 over 400 evals never triggered")
	}
	if len(a) != len(b) {
		t.Fatalf("two runs triggered %d vs %d times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trigger schedule differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Chaos triggers are latency-only: Fail never returns an error.
	p1.armRandom(42, 1.0)
	for i := 0; i < 10; i++ {
		if err := p1.Fail(); err != nil {
			t.Fatalf("random-mode Fail returned %v, want latency-only nil", err)
		}
	}
	if v := p1.Hits(); v == 0 {
		t.Error("prob 1.0 random mode never counted a hit")
	}
}

func TestActiveAndDisarmAll(t *testing.T) {
	Arm("test/active-a", Action{Kind: Error})
	Arm("test/active-b", Action{Kind: Sleep, Delay: time.Millisecond})
	names := Active()
	has := func(n string) bool {
		for _, v := range names {
			if v == n {
				return true
			}
		}
		return false
	}
	if !has("test/active-a") || !has("test/active-b") {
		t.Fatalf("Active() = %v, missing armed test sites", names)
	}
	DisarmAll()
	for _, n := range []string{"test/active-a", "test/active-b"} {
		if p := Lookup(n); p == nil || p.cur.Load() != nil {
			t.Errorf("site %s still armed after DisarmAll", n)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if p := Lookup("test/never-registered"); p != nil {
		t.Error("Lookup of unregistered site returned a point")
	}
	// Disarm of an unknown site is a no-op, not a panic.
	Disarm("test/never-registered")
}

func TestRegisterIsIdempotent(t *testing.T) {
	a := Register("test/idem")
	b := Register("test/idem")
	if a != b {
		t.Error("Register returned distinct points for one site")
	}
}

// TestConcurrentEvalWithTimes: a Times budget is never exceeded however
// many goroutines race the countdown.
func TestConcurrentEvalWithTimes(t *testing.T) {
	p := Arm("test/conc", Action{Kind: Error, Times: 10})
	defer Disarm("test/conc")
	var wg sync.WaitGroup
	var triggered [8]int
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if p.Fail() != nil {
					triggered[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range triggered {
		total += n
	}
	if total != 10 {
		t.Errorf("Times:10 triggered %d faults across goroutines", total)
	}
}

func BenchmarkDisabledFail(b *testing.B) {
	p := Register("bench/disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p.Fail() != nil {
			b.Fatal("triggered")
		}
	}
}

func BenchmarkDisabledWriteThrough(b *testing.B) {
	p := Register("bench/disabled-write")
	buf := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.WriteThrough(io.Discard, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// DisarmAll disables every registered site — the test-cleanup sweep.
func DisarmAll() {
	registry.Lock()
	defer registry.Unlock()
	for _, p := range registry.points {
		p.cur.Store(nil)
	}
}

// Active returns the names of currently armed sites, for diagnostics.
func Active() []string {
	registry.Lock()
	defer registry.Unlock()
	var out []string
	for name, p := range registry.points {
		if p.cur.Load() != nil {
			out = append(out, name)
		}
	}
	return out
}
