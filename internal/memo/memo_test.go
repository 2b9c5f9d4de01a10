package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fail"
)

func TestGetCaches(t *testing.T) {
	var m Map[string, int]
	calls := 0
	build := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := m.Get("k", build)
		if err != nil || v != 42 {
			t.Fatalf("get %d: %v, %v", i, v, err)
		}
	}
	if calls != 1 {
		t.Errorf("builder ran %d times, want 1", calls)
	}
	if len(m.m) != 1 {
		t.Errorf("len = %d", len(m.m))
	}
}

func TestSingleflightUnderContention(t *testing.T) {
	var m Map[int, int]
	var builds [8]atomic.Int64
	var wg sync.WaitGroup
	const goroutines = 64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := g % len(builds)
			v, err := m.Get(key, func() (int, error) {
				builds[key].Add(1)
				time.Sleep(time.Millisecond) // widen the race window
				return key * 10, nil
			})
			if err != nil || v != key*10 {
				t.Errorf("key %d: got %v, %v", key, v, err)
			}
		}(g)
	}
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want exactly 1", k, n)
		}
	}
}

func TestDistinctKeysBuildConcurrently(t *testing.T) {
	var m Map[int, int]
	const keys = 4
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			m.Get(k, func() (int, error) {
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(20 * time.Millisecond)
				inFlight.Add(-1)
				return k, nil
			})
		}(k)
	}
	wg.Wait()
	if peak.Load() < 2 {
		t.Errorf("peak concurrent builds = %d, want >= 2 (distinct keys must not serialize)", peak.Load())
	}
}

func TestErrorNotCached(t *testing.T) {
	var m Map[string, int]
	calls := 0
	boom := errors.New("boom")
	build := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 7, nil
	}
	if _, err := m.Get("k", build); !errors.Is(err, boom) {
		t.Fatalf("first get err = %v", err)
	}
	if len(m.m) != 0 {
		t.Errorf("failed build left a cache entry")
	}
	v, err := m.Get("k", build)
	if err != nil || v != 7 {
		t.Fatalf("retry: %v, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("builder ran %d times", calls)
	}
}

func TestPanicClearsAndWakesWaiters(t *testing.T) {
	var m Map[string, int]
	release := make(chan struct{})
	waiterErr := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		m.Get("k", func() (int, error) {
			close(started)
			<-release
			panic("builder exploded")
		})
	}()
	<-started
	go func() {
		_, err := m.Get("k", func() (int, error) { return 0, fmt.Errorf("should not run while in flight") })
		waiterErr <- err
	}()
	close(release)
	select {
	case err := <-waiterErr:
		if err == nil {
			t.Error("waiter after panic should get an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked after builder panic")
	}
	// The key is clear: a fresh build succeeds.
	v, err := m.Get("k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("rebuild after panic: %v, %v", v, err)
	}
}

// TestForget: a forgotten key builds again on the next Get, even while
// the forgotten build is in flight, whose caller still gets its own
// result; a builder that forgets its own key leaves nothing behind.
func TestForget(t *testing.T) {
	var m Map[string, int]
	m.Get("k", func() (int, error) { return 1, nil })
	m.Forget("k")
	if v, _ := m.Get("k", func() (int, error) { return 2, nil }); v != 2 {
		t.Fatalf("Get after Forget = %d, want a fresh build (2)", v)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	first := make(chan int, 1)
	go func() {
		v, _ := m.Get("inflight", func() (int, error) {
			close(started)
			<-release
			return 3, nil
		})
		first <- v
	}()
	<-started
	m.Forget("inflight")
	if v, _ := m.Get("inflight", func() (int, error) { return 5, nil }); v != 5 {
		t.Fatalf("Get after forgetting an in-flight build = %d, want a fresh build (5)", v)
	}
	close(release)
	if v := <-first; v != 3 {
		t.Fatalf("the forgotten build's caller got %d, want its own result (3)", v)
	}
	if v, _ := m.Get("inflight", func() (int, error) { return -1, nil }); v != 5 {
		t.Fatalf("Get = %d, want the fresh build's cached 5", v)
	}

	v, err := m.Get("self", func() (int, error) {
		defer m.Forget("self")
		return 4, nil
	})
	if err != nil || v != 4 || len(m.m) != 2 {
		t.Fatalf("self-forgetting build = %v, %v with %d entries, want 4 and only k and inflight kept", v, err, len(m.m))
	}
}

// TestBuildFailpoint: the memo/build site injects a failure into any
// builder without a bespoke flaky build func: the builder does not run,
// the key is cleared, and the next Get builds.
func TestBuildFailpoint(t *testing.T) {
	fail.Arm("memo/build", fail.Action{Kind: fail.Error, Times: 1})
	defer fail.Disarm("memo/build")
	var m Map[string, int]
	builds := 0
	build := func() (int, error) { builds++; return 3, nil }
	if _, err := m.Get("k", build); err == nil {
		t.Fatal("Get across an injected build fault succeeded")
	}
	if builds != 0 {
		t.Fatalf("real builder ran %d times under the injected fault, want 0", builds)
	}
	if v, err := m.Get("k", build); err != nil || v != 3 || builds != 1 {
		t.Fatalf("Get after the fault = %v, %v with %d builds, want 3 from one build", v, err, builds)
	}
}

func TestCell(t *testing.T) {
	var c Cell[string]
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := c.Get(func() (string, error) { calls++; return "once", nil })
		if err != nil || v != "once" {
			t.Fatalf("cell get: %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("cell builder ran %d times", calls)
	}
}
