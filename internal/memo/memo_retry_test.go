package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fail"
)

// fakeClock is a manually-advanced Policy.Now source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestGetRetryHealsTransient: a builder that fails once then succeeds
// heals inside one GetRetry call — no error escapes, no duplicate
// builds afterwards, and the backoff sleep between attempts carries
// jitter in [BaseDelay/2, BaseDelay).
func TestGetRetryHealsTransient(t *testing.T) {
	var m Map[string, int]
	var builds atomic.Int64
	transient := errors.New("transient")
	build := func() (int, error) {
		if builds.Add(1) == 1 {
			return 0, transient
		}
		return 7, nil
	}
	var slept []time.Duration
	p := Policy{
		Attempts:  3,
		BaseDelay: 40 * time.Millisecond,
		MaxDelay:  time.Second,
		Seed:      5,
		Sleep:     func(d time.Duration) { slept = append(slept, d) },
	}
	v, err := m.GetRetry("k", build, p)
	if err != nil || v != 7 {
		t.Fatalf("GetRetry = %v, %v", v, err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("builder ran %d times, want 2 (fail, heal)", n)
	}
	if len(slept) != 1 || slept[0] < 20*time.Millisecond || slept[0] >= 40*time.Millisecond {
		t.Fatalf("backoff sleeps = %v, want one in [20ms, 40ms)", slept)
	}
	// Healed result is cached: no more builds, no more sleeps.
	if v, err := m.GetRetry("k", build, p); err != nil || v != 7 {
		t.Fatalf("second GetRetry = %v, %v", v, err)
	}
	if builds.Load() != 2 || len(slept) != 1 {
		t.Errorf("cached GetRetry built again (builds=%d sleeps=%d)", builds.Load(), len(slept))
	}
}

// TestGetRetryBackoffDeterministic: same seed, same schedule; the
// exponential envelope doubles per attempt up to the cap, and keeps
// doubling when MaxDelay is 0 (uncapped).
func TestGetRetryBackoffDeterministic(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name string
		p    Policy
		// envelopes[i] bounds backoff(i+2): BaseDelay<<i (capped at
		// MaxDelay) scaled by jitter in [0.5, 1.0).
		envelopes [][2]time.Duration
	}{
		{"capped", Policy{BaseDelay: 100 * ms, MaxDelay: 350 * ms, Seed: 9},
			[][2]time.Duration{{50 * ms, 100 * ms}, {100 * ms, 200 * ms}, {175 * ms, 350 * ms}, {175 * ms, 350 * ms}}},
		{"uncapped", Policy{BaseDelay: 10 * ms, Seed: 9},
			[][2]time.Duration{{5 * ms, 10 * ms}, {10 * ms, 20 * ms}, {20 * ms, 40 * ms}, {40 * ms, 80 * ms}}},
	}
	for _, c := range cases {
		for i, env := range c.envelopes {
			n := i + 2
			d := c.p.backoff(n)
			if again := c.p.backoff(n); again != d {
				t.Fatalf("%s: backoff(%d) nondeterministic: %v vs %v", c.name, n, d, again)
			}
			if d < env[0] || d >= env[1] {
				t.Errorf("%s: backoff(%d) = %v outside [%v, %v)", c.name, n, d, env[0], env[1])
			}
		}
	}
	if d := (Policy{}).backoff(2); d != 0 {
		t.Errorf("zero-policy backoff = %v, want 0", d)
	}
}

// TestGetRetryNegativeCache: after the attempts budget is spent, the
// error is served from the negative cache — zero builds — until the
// TTL expires, then building resumes.
func TestGetRetryNegativeCache(t *testing.T) {
	var m Map[string, int]
	var builds atomic.Int64
	boom := errors.New("persistent")
	build := func() (int, error) { builds.Add(1); return 0, boom }
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := Policy{
		Attempts: 2,
		ErrTTL:   time.Second,
		Sleep:    func(time.Duration) {},
		Now:      clk.now,
	}
	if _, err := m.GetRetry("k", build, p); !errors.Is(err, boom) {
		t.Fatalf("first GetRetry = %v", err)
	}
	if builds.Load() != 2 {
		t.Fatalf("first call built %d times, want 2", builds.Load())
	}
	// Inside the TTL: the cached error, no builds.
	for i := 0; i < 5; i++ {
		if _, err := m.GetRetry("k", build, p); !errors.Is(err, boom) {
			t.Fatalf("neg-cached GetRetry = %v", err)
		}
	}
	if builds.Load() != 2 {
		t.Fatalf("neg-cached calls built (total %d, want 2)", builds.Load())
	}
	// TTL expiry: builds resume.
	clk.advance(2 * time.Second)
	if _, err := m.GetRetry("k", build, p); !errors.Is(err, boom) {
		t.Fatalf("post-TTL GetRetry = %v", err)
	}
	if builds.Load() != 4 {
		t.Errorf("post-TTL call built %d total, want 4", builds.Load())
	}
}

// TestGetRetryZeroPolicyIsGet: no retries, no negative cache.
func TestGetRetryZeroPolicyIsGet(t *testing.T) {
	var m Map[string, int]
	var builds atomic.Int64
	boom := errors.New("x")
	build := func() (int, error) { builds.Add(1); return 0, boom }
	for i := 0; i < 3; i++ {
		if _, err := m.GetRetry("k", build, Policy{}); !errors.Is(err, boom) {
			t.Fatalf("GetRetry = %v", err)
		}
	}
	if builds.Load() != 3 {
		t.Errorf("zero-policy GetRetry built %d times over 3 calls, want 3", builds.Load())
	}
}

// TestGetRetrySingleflight: concurrent GetRetry callers for one key
// share the in-flight build — retrying never duplicates a build
// another caller is running.
func TestGetRetrySingleflight(t *testing.T) {
	var m Map[string, int]
	var builds atomic.Int64
	build := func() (int, error) {
		builds.Add(1)
		time.Sleep(2 * time.Millisecond)
		return 11, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := m.GetRetry("k", build, Policy{Attempts: 3}); err != nil || v != 11 {
				t.Errorf("GetRetry = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("%d builds across 16 concurrent callers, want 1", builds.Load())
	}
}

// TestCachedContract: Cached never observes a mid-build or failed
// value — the invariant GetRetry's cache check stands on.
func TestCachedContract(t *testing.T) {
	var m Map[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Get("k", func() (int, error) {
			close(started)
			<-release
			return 0, errors.New("failed build")
		})
	}()
	<-started
	if _, ok := m.Cached("k"); ok {
		t.Fatal("Cached observed a mid-build value")
	}
	close(release)
	<-done
	if _, ok := m.Cached("k"); ok {
		t.Fatal("Cached observed a failed build")
	}
	m.Get("k", func() (int, error) { return 5, nil })
	if v, ok := m.Cached("k"); !ok || v != 5 {
		t.Fatalf("Cached after success = %v, %v", v, ok)
	}
}

// TestBuildFailpoint: the memo/build site injects a failure into any
// builder without a bespoke flaky build func, and GetRetry heals it.
func TestBuildFailpoint(t *testing.T) {
	fail.Arm("memo/build", fail.Action{Kind: fail.Error, Times: 1})
	defer fail.Disarm("memo/build")
	var m Map[string, int]
	builds := 0
	build := func() (int, error) { builds++; return 3, nil }
	v, err := m.GetRetry("k", build, Policy{Attempts: 2, Sleep: func(time.Duration) {}})
	if err != nil || v != 3 {
		t.Fatalf("GetRetry across injected build fault = %v, %v", v, err)
	}
	if builds != 1 {
		t.Errorf("real builder ran %d times, want 1 (first attempt was injected away)", builds)
	}
}
