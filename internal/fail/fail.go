// Package fail is the fault-injection substrate: a registry of named
// failpoints threaded through the repository's I/O and build boundaries
// (segment writer/reader, the clicklog CLI, memo builders, serve cold
// builds, HTTP handlers) so every defense against partial failure can
// be tested by injecting the exact fault it defends against.
//
// The contract mirrors internal/obs spans: a failpoint is DISABLED by
// default, and a disabled evaluation is one atomic pointer load — no
// map lookup, no allocation, no time syscall — so sites are safe to
// leave compiled into hot-ish paths permanently. Arming happens three
// ways:
//
//   - Test API: fail.Arm("seg/write", fail.Action{Kind: fail.Error}),
//     fail.Disarm. Points count their triggered hits
//     (Point.Hits) and every trigger increments the obs counter
//     repro_fail_injected_total{site=...}, so injected degradation is
//     observable exactly like real degradation.
//   - Environment: FAILPOINTS="site=action[;site=action...]" arms
//     sites as they register. Actions: "error[:N]", "panic",
//     "sleep:DUR[:N]", "shortwrite:BYTES[:N]" — N bounds how many
//     times the point triggers (default unlimited).
//   - Chaos mode: FAILPOINTS=random arms EVERY site with a
//     deterministic pseudo-random latency schedule derived from
//     FAILSEED (default 1) and FAILPROB (trigger probability per
//     evaluation, default 0.01). Latency-only injection perturbs
//     goroutine interleavings — the schedule a CI chaos job runs the
//     full suite under, with -race watching — without changing any
//     result, so the whole test suite must stay green under it.
//
// Triggers: an error return (Error), a panic (Panic), added latency
// (Sleep), and a short write (ShortWrite, applied through
// Point.WriteThrough at writer sites). Sites are registered once at
// package init (fail.Register("layer/op")) and evaluated with
// Point.Fail or Point.WriteThrough.
package fail

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrInjected is the error an armed Error or ShortWrite trigger
// returns when the action carries no explicit error. Callers testing a
// failure path match it with errors.Is.
var ErrInjected = errors.New("fail: injected fault")

// Kind selects what an armed failpoint does when it triggers.
type Kind uint8

const (
	// Error makes Fail (or WriteThrough) return Action.Err, or
	// ErrInjected when Err is nil.
	Error Kind = iota + 1
	// Panic panics with the site name — the crash-mid-write fault the
	// atomic temp-file writers defend against.
	Panic
	// Sleep adds Action.Delay of latency and then proceeds normally.
	Sleep
	// ShortWrite makes WriteThrough write only Action.Bytes bytes and
	// return ErrInjected — the torn-tail fault salvage recovery defends
	// against. Fail treats it like Error.
	ShortWrite
)

// Action describes one armed trigger.
type Action struct {
	Kind  Kind
	Err   error         // Error/ShortWrite: the returned error (nil: ErrInjected)
	Delay time.Duration // Sleep: added latency
	Bytes int           // ShortWrite: bytes accepted before the error
	Skip  int64         // evaluations that pass through before the first trigger
	Times int64         // triggers before the point goes inert (0: unlimited)
}

// armed is an Action in flight: the action plus its mutable countdown
// state, swapped in atomically as one unit.
type armed struct {
	a    Action
	skip atomic.Int64 // remaining pass-through evaluations
	left atomic.Int64 // remaining triggers
	// chaos mode: deterministic latency schedule instead of a.
	random bool
	seed   uint64
	prob   uint64 // trigger threshold out of 2^63
	evals  atomic.Uint64
}

// Point is one named failpoint site. The zero-cost contract: when
// disarmed, Fail and WriteThrough resolve with a single atomic pointer
// load.
type Point struct {
	name string
	cur  atomic.Pointer[armed]
	hits atomic.Uint64
	obsC *obs.Counter
}

// Hits returns how many times this point has triggered since process
// start (arming and disarming do not reset it).
//
//repro:testonly-ok failpoint test API: serve's degradation tests count hits
func (p *Point) Hits() uint64 { return p.hits.Load() }

// registry holds every registered point. Registration happens at
// package init of the instrumented layers; lookups after that are
// test-path only.
var registry struct {
	sync.Mutex
	points map[string]*Point
}

// env holds the FAILPOINTS configuration parsed once at package init
// and applied to sites as they register. Tests mutate it directly (same
// package) around Register calls.
var env struct {
	specs  map[string]Action
	random bool
	seed   uint64
	prob   float64
}

func init() {
	parseEnv(os.Getenv("FAILPOINTS"), os.Getenv("FAILSEED"), os.Getenv("FAILPROB"))
}

// parseEnv loads the env configuration; malformed specs are reported
// on stderr and skipped rather than aborting the process.
func parseEnv(failpoints, seed, prob string) {
	env.specs = nil
	env.random = false
	env.seed = 1
	env.prob = 0.01
	if failpoints == "" {
		return
	}
	if failpoints == "random" {
		env.random = true
		if seed != "" {
			if v, err := strconv.ParseUint(seed, 10, 64); err == nil {
				env.seed = v
			} else {
				fmt.Fprintf(os.Stderr, "fail: bad FAILSEED %q: %v\n", seed, err)
			}
		}
		if prob != "" {
			if v, err := strconv.ParseFloat(prob, 64); err == nil && v >= 0 && v <= 1 {
				env.prob = v
			} else {
				fmt.Fprintf(os.Stderr, "fail: bad FAILPROB %q\n", prob)
			}
		}
		return
	}
	env.specs = make(map[string]Action)
	for _, spec := range strings.Split(failpoints, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		site, action, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "fail: bad FAILPOINTS spec %q (want site=action)\n", spec)
			continue
		}
		a, err := ParseAction(action)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fail: bad FAILPOINTS spec %q: %v\n", spec, err)
			continue
		}
		env.specs[site] = a
	}
}

// ParseAction parses the env action grammar: "error[:N]", "panic",
// "sleep:DUR[:N]", "shortwrite:BYTES[:N]".
func ParseAction(s string) (Action, error) {
	fields := strings.Split(s, ":")
	var a Action
	times := ""
	switch fields[0] {
	case "error":
		a.Kind = Error
		if len(fields) > 2 {
			return a, fmt.Errorf("error takes at most one :N suffix")
		}
		if len(fields) == 2 {
			times = fields[1]
		}
	case "panic":
		a.Kind = Panic
		if len(fields) > 1 {
			return a, fmt.Errorf("panic takes no arguments")
		}
	case "sleep":
		a.Kind = Sleep
		if len(fields) < 2 || len(fields) > 3 {
			return a, fmt.Errorf("want sleep:DUR[:N]")
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return a, fmt.Errorf("sleep duration: %w", err)
		}
		if d < 0 {
			return a, fmt.Errorf("sleep duration %v is negative", d)
		}
		a.Delay = d
		if len(fields) == 3 {
			times = fields[2]
		}
	case "shortwrite":
		a.Kind = ShortWrite
		if len(fields) < 2 || len(fields) > 3 {
			return a, fmt.Errorf("want shortwrite:BYTES[:N]")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return a, fmt.Errorf("shortwrite byte count %q", fields[1])
		}
		a.Bytes = n
		if len(fields) == 3 {
			times = fields[2]
		}
	default:
		return a, fmt.Errorf("unknown action %q (error, panic, sleep, shortwrite)", fields[0])
	}
	if times != "" {
		n, err := strconv.ParseInt(times, 10, 64)
		if err != nil || n < 1 {
			return a, fmt.Errorf("trigger count %q", times)
		}
		a.Times = n
	}
	return a, nil
}

// Register interns (get-or-create) the named site and applies any
// pending environment arming. Call it once per site from a package
// -level var at the instrumentation point.
func Register(name string) *Point {
	registry.Lock()
	defer registry.Unlock()
	if registry.points == nil {
		registry.points = make(map[string]*Point)
	}
	if p, ok := registry.points[name]; ok {
		return p
	}
	p := &Point{
		name: name,
		obsC: obs.Default.Counter("repro_fail_injected_total",
			"Faults injected by armed failpoints, by site", obs.L("site", name)),
	}
	registry.points[name] = p
	switch {
	case env.random:
		p.armRandom(env.seed, env.prob)
	default:
		if a, ok := env.specs[name]; ok {
			p.arm(a)
		}
	}
	return p
}

// Lookup returns the named point, or nil if no site registered it.
func Lookup(name string) *Point {
	registry.Lock()
	defer registry.Unlock()
	return registry.points[name]
}

// Arm registers (if needed) and arms the named site. It returns the
// point so tests can read hit counts.
//
//repro:testonly-ok failpoint test API: memo, fsx, seg, serve and cmd/clicklog tests
func Arm(name string, a Action) *Point {
	p := Register(name)
	p.arm(a)
	return p
}

// Disarm disables the named site if it exists.
//
//repro:testonly-ok failpoint test API: memo, fsx, seg, serve and cmd/clicklog tests
func Disarm(name string) {
	if p := Lookup(name); p != nil {
		p.cur.Store(nil)
	}
}

func (p *Point) arm(a Action) {
	ar := &armed{a: a}
	ar.skip.Store(a.Skip)
	if a.Times > 0 {
		ar.left.Store(a.Times)
	} else {
		ar.left.Store(math.MaxInt64)
	}
	p.cur.Store(ar)
}

// armRandom arms the chaos-mode schedule: each evaluation triggers a
// 1–4ms sleep with probability prob, decided by a counter-based hash of
// (seed, site, evaluation index) — fully deterministic for a fixed
// seed, independent of timing.
func (p *Point) armRandom(seed uint64, prob float64) {
	ar := &armed{random: true, seed: seed ^ fnv64(p.name), prob: uint64(prob * float64(1<<63))}
	ar.left.Store(math.MaxInt64)
	p.cur.Store(ar)
}

// fnv64 hashes a site name (FNV-1a) for chaos-seed mixing.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// splitmix64 is the one-step counter-based mixer (same finalizer as
// internal/dist) used for the deterministic chaos schedule.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// eval decides whether this evaluation triggers and returns the action
// if so. The disarmed path is the single atomic load.
func (p *Point) eval() (Action, bool) {
	ar := p.cur.Load()
	if ar == nil {
		return Action{}, false
	}
	if ar.random {
		n := ar.evals.Add(1)
		h := splitmix64(ar.seed + n)
		if h>>1 >= ar.prob {
			return Action{}, false
		}
		p.count()
		return Action{Kind: Sleep, Delay: time.Duration(1+h%4) * time.Millisecond}, true
	}
	if ar.skip.Add(-1) >= 0 {
		return Action{}, false
	}
	if ar.left.Add(-1) < 0 {
		return Action{}, false
	}
	p.count()
	return ar.a, true
}

func (p *Point) count() {
	p.hits.Add(1)
	p.obsC.Inc()
}

// Fail evaluates the point: nil when disarmed or not triggering this
// evaluation; otherwise it sleeps (Sleep, returning nil), panics
// (Panic), or returns the armed error (Error and ShortWrite). Disabled
// cost is one atomic load and zero allocations.
//
//repro:noalloc
func (p *Point) Fail() error {
	a, ok := p.eval()
	if !ok {
		return nil
	}
	switch a.Kind {
	case Sleep:
		time.Sleep(a.Delay)
		return nil
	case Panic:
		panic("fail: injected panic at " + p.name) //repro:alloc-ok panic path; the zero-alloc contract covers disarmed and error paths
	default:
		if a.Err != nil {
			return a.Err
		}
		return ErrInjected
	}
}

// WriteThrough writes b to w, applying the point's armed trigger: a
// ShortWrite action writes only the armed byte count and returns the
// injected error (reporting the bytes actually written, like a real
// torn write); Error fails before writing; Sleep delays then writes.
// Disarmed, it is w.Write(b) plus one atomic load.
func (p *Point) WriteThrough(w io.Writer, b []byte) (int, error) {
	a, ok := p.eval()
	if !ok {
		return w.Write(b)
	}
	switch a.Kind {
	case Sleep:
		time.Sleep(a.Delay)
		return w.Write(b)
	case Panic:
		panic("fail: injected panic at " + p.name)
	case ShortWrite:
		n := a.Bytes
		if n > len(b) {
			n = len(b)
		}
		if n > 0 {
			m, err := w.Write(b[:n])
			if err != nil {
				return m, err
			}
			n = m
		}
		if a.Err != nil {
			return n, a.Err
		}
		return n, ErrInjected
	default:
		if a.Err != nil {
			return 0, a.Err
		}
		return 0, ErrInjected
	}
}
