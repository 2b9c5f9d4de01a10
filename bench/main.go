// Command bench is the repository's end-to-end benchmark. It drives the
// three user-facing paths of the reproduction — building a study
// (cmd/analyze), persisting and replaying click logs (cmd/clicklog) and
// answering HTTP requests (cmd/serve) — through the packages' public
// functions, checks every operation's output, and prints each metric by
// name with its unit. BENCHMARK.json at the repository root names the
// workloads, the metrics and each end-to-end metric's regression bound;
// README.md in this directory explains them.
//
// Run it from the repository root through run.sh, which builds it from
// source first:
//
//	bash bench/run.sh                                  # every workload
//	bash bench/run.sh --workload clicklog --seed 3     # one workload
//	bash bench/run.sh --workload clicklog --trace 1    # per-layer numbers
//	bash bench/run.sh -compare base*.jsonl -- head*.jsonl
//
// A single-workload run prints, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics. It exits non-zero
// when any check fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// params is one run's configuration.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // scratch files and traces
	sz       sizes
	// setupReps overrides the workload's set-up count (0: keep
	// workload.setupReps); the smoke test lowers it.
	setupReps int
	// maxOps caps the measured operations (0: no cap); the smoke test
	// uses it to run each workload for one or two operations.
	maxOps int
}

// sizes fixes how much work each operation does. Full sizes are the
// benchmark; tiny sizes keep the smoke test fast.
type sizes struct {
	entities, dirHosts, catalogN int // study scale: synth.ScaleSmall at full size
	clickCatalog, clickEvents    int // clicklog catalog and clicks per source
	warmSeeds                    int // study seeds in serve-warm's hot set
	coldWindow                   int // distinct seeds serve-coldscan cycles through
	censusRequests               int // requests per serve schedule in a traced run
	censusColdConfigs            int // cold configurations per traced run
	full                         bool
}

var (
	fullSizes = sizes{
		entities: 2000, dirHosts: 3000, catalogN: 2000,
		clickCatalog: 5000, clickEvents: 500_000,
		warmSeeds: 2, coldWindow: 61,
		censusRequests: 4000, censusColdConfigs: 24,
		full: true,
	}
	tinySizes = sizes{
		entities: 200, dirHosts: 300, catalogN: 200,
		clickCatalog: 500, clickEvents: 5000,
		warmSeeds: 1, coldWindow: 5,
		censusRequests: 40, censusColdConfigs: 2,
	}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one result tagged with its run, as the all-workloads mode
// prints it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// metricSpec names one metric. The smoke test holds these tables equal
// to BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// bench is one workload's prepared state.
type bench interface {
	// op runs operation i for closed-loop client c and returns the
	// duration of its timed region. A non-nil error — the operation
	// failed, or its output failed a check — counts the op as failed.
	op(c, i int) (time.Duration, error)
	close() error
}

// verifier is a bench whose checks need work after the measured window;
// verify returns one error per failed operation.
type verifier interface {
	verify() []error
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// tailPct is the percentile reported as op_tail_ms: the highest
	// that keeps at least ten samples beyond it at this workload's
	// usual operation count.
	tailPct float64
	clients int // closed-loop clients; 1 for workloads whose op is already parallel inside, and for cold serving
	// setupReps is how many times a run sets up, reporting the median.
	// A fresh process's first set-ups also pay page faults, heap growth
	// and lazy initialization; the median is robust to them, and cheap
	// set-ups repeat more often because short timings are noisier.
	setupReps int
	// prepare builds the workload's inputs and references, repeating
	// its set-up p.setupReps times, each from a collected heap; it
	// returns the last set-up's state and every set-up's duration.
	prepare func(p params) (bench, []time.Duration, error)
}

var workloads = []workload{
	{name: "study-direct", tailPct: 65, clients: 1, setupReps: 7, prepare: prepareStudy(false)},
	{name: "study-extract", tailPct: 50, clients: 1, setupReps: 5, prepare: prepareStudy(true)},
	{name: "clicklog", tailPct: 50, clients: 1, setupReps: 15, prepare: prepareClicklog},
	{name: "serve-warm", tailPct: 99, clients: 2, setupReps: 5, prepare: prepareServeWarm},
	{name: "serve-coldscan", tailPct: 98, clients: 1, setupReps: 15, prepare: prepareServeCold},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := params{sz: fullSizes}
	fs.StringVar(&p.workload, "workload", "", "workload to run (empty: every workload, each in its own child process)")
	fs.Uint64Var(&p.seed, "seed", 1, "workload seed; every study, catalog and request seed derives from it")
	fs.Float64Var(&p.seconds, "seconds", 15, "seconds of measurement per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&p.outDir, "out", ".bench_build", "directory for scratch files and traces")
	compare := fs.Bool("compare", false, "compare result files with the bounds in BENCHMARK.json: -compare BASE... -- HEAD...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare("BENCHMARK.json", fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || p.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	p.trace = *trace == 1
	if p.workload == "" {
		return runAll(p, stdout, stderr)
	}
	res, err := runWorkload(p, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", p.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(p params, logw io.Writer) (result, error) {
	w, ok := lookupWorkload(p.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload (known: %s)", strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return result{}, err
	}
	if p.trace {
		return runTraced(w, p, logw)
	}
	if p.setupReps == 0 {
		p.setupReps = w.setupReps
	}
	b, setups, err := w.prepare(p)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	lat, attempted, failed, wall := drive(b, w.clients, p, logw)
	if v, ok := b.(verifier); ok {
		for _, err := range v.verify() {
			failed++
			fmt.Fprintf(logw, "bench: %s: %v\n", p.workload, err)
		}
	}
	heap := liveHeap()
	if err := b.close(); err != nil {
		return result{}, fmt.Errorf("tear-down: %w", err)
	}
	if len(lat) == 0 {
		return result{}, fmt.Errorf("no operation succeeded (%d attempted)", attempted)
	}
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":      {median(setupS), "s"},
			"ops_per_s":    {float64(len(lat)) / wall.Seconds(), "1/s"},
			"op_p50_ms":    {median(lat), "ms"},
			"op_tail_ms":   {percentile(lat, w.tailPct), "ms"},
			"heap_live_mb": {heap / 1e6, "MB"},
		},
	}, nil
}

// drive runs closed-loop clients against b until the measurement time
// (or p.maxOps) is used up, returning the successful operations'
// latencies in milliseconds, the attempted and failed counts, and the
// wall time from the first operation's start to the last one's end.
func drive(b bench, clients int, p params, logw io.Writer) (lat []float64, attempted, failed int, wall time.Duration) {
	var (
		next     atomic.Int64
		nFailed  atomic.Int64
		logMu    sync.Mutex
		wg       sync.WaitGroup
		perLat   = make([][]float64, clients)
		start    = time.Now()
		deadline = start.Add(time.Duration(p.seconds * float64(time.Second)))
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if p.maxOps > 0 && i >= p.maxOps {
					next.Add(-1)
					return
				}
				d, err := b.op(c, i)
				if err != nil {
					if nFailed.Add(1) <= 5 {
						logMu.Lock()
						fmt.Fprintf(logw, "bench: %s op %d: %v\n", p.workload, i, err)
						logMu.Unlock()
					}
					continue
				}
				perLat[c] = append(perLat[c], ms(d))
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, l := range perLat {
		lat = append(lat, l...)
	}
	return lat, int(next.Load()), int(nFailed.Load()), wall
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload, each in a child process of this binary so
// that heap and GC state cannot carry from one workload to the next. It
// prints a table of every metric and one record line per workload.
func runAll(p params, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	trace := "0"
	if p.trace {
		trace = "1"
	}
	status := 0
	var recs []record
	for _, w := range workloads {
		cmd := exec.Command(exe,
			"--workload", w.name,
			"--seed", strconv.FormatUint(p.seed, 10),
			"--seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64),
			"--trace", trace,
			"--out", p.outDir)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		res, perr := lastResult(out)
		if perr != nil {
			fmt.Fprintf(stderr, "bench: workload %s failed: %v\n", w.name, errors.Join(err, perr))
			status = 1
			continue
		}
		if err != nil || !res.Correct {
			status = 1
		}
		recs = append(recs, record{Workload: w.name, Seed: p.seed, Trace: p.trace, result: res})
	}
	tw := bufio.NewWriter(stdout)
	for _, r := range recs {
		fmt.Fprintf(tw, "%s  correct=%t attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := r.Metrics[n]
			fmt.Fprintf(tw, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(tw, "%s\n", line)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return status
}

// lastResult parses the last non-empty line of a single-workload run.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}

// liveHeap is HeapAlloc in bytes after two collections: the first moves
// sync.Pool contents to the pools' victim caches, where they stay live
// until the second.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// derive returns the i-th seed of the named input stream under the
// workload seed (splitmix64 finalizer over a mix of the three), so every
// input of a run is a pure function of --seed.
func derive(seed uint64, stream string, i int) uint64 {
	h := uint64(14695981039346656037)
	for j := 0; j < len(stream); j++ {
		h ^= uint64(stream[j])
		h *= 1099511628211
	}
	z := seed*0x9e3779b97f4a7c15 ^ h ^ uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
