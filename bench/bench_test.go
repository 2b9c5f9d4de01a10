package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// logWriter forwards benchmark diagnostics to the test log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.name)
		case g.Unit != m.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, m.name, g.Unit, m.unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", what, m.name, g.Value)
		}
	}
}

// TestSpecMatchesBenchmarkJSON holds the metric tables in this package
// equal to the ones BENCHMARK.json declares.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	s, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		file []specMetric
		code []metricSpec
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.what, len(c.file), len(c.code))
			continue
		}
		for i, f := range c.file {
			if m := c.code[i]; f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the benchmark %s %s %s",
					c.what, i, f.Name, f.Unit, f.Better, m.name, m.unit, m.better)
			}
		}
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(raw.Workloads), len(workloads))
	}
	for i, w := range raw.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsSmoke runs every workload for two operations at tiny
// sizes, then one traced run, and checks that each reports every metric
// with its unit and passes every check, and that the trace loads.
func TestWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	p := params{seed: 1, seconds: 120, outDir: dir, sz: tinySizes, setupReps: 2, maxOps: 2}
	for _, w := range workloads {
		p.workload = w.name
		res, err := runWorkload(p, logWriter{t})
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d, want a correct run of 2 ops", w.name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, w.name, res.Metrics, endToEnd)
	}

	p.workload, p.trace = "serve-coldscan", true
	res, err := runWorkload(p, logWriter{t})
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced: correct=%t failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	checkMetrics(t, "traced", res.Metrics, perLayer)

	data, err := os.ReadFile(filepath.Join(dir, "traces", "serve-coldscan.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not Chrome trace-event JSON: %v", err)
	}
	var bench, program bool
	for _, e := range events {
		if e.Ph != "X" {
			t.Fatalf("trace event %+v is not a complete event", e)
		}
		bench = bench || strings.HasPrefix(e.Name, "bench/")
		program = program || strings.HasPrefix(e.Name, "build/")
	}
	if !bench || !program {
		t.Errorf("trace has bench spans: %t, program build spans: %t; want both", bench, program)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 1}, 0.25, 4.75},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, c := range []struct {
		name        string
		head        []float64
		lowerBetter bool
		want        string
	}{
		{"same", shift(1), true, "within bound"},
		{"slightly worse", shift(1.03), true, "within bound"},
		{"much worse", shift(1.2), true, "regressed"},
		{"much better", shift(0.8), true, "improved"},
		{"higher is better", shift(0.8), false, "regressed"},
		{"noisy head", noisy, true, "unresolved"},
	} {
		if got := judge(base, c.head, 0.1, c.lowerBetter); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}
