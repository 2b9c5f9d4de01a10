package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json -compare needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runCompare implements -compare BASE... -- HEAD...: for every end-to-end
// metric of every workload present on both sides it prints each side's
// median and quartiles over its runs and one verdict. It returns 1 if
// any pair regressed or is unresolved.
func runCompare(specPath string, args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: bench -compare BASE.jsonl... -- HEAD.jsonl...")
		return 2
	}
	s, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	base, err := readRuns(args[:split])
	if err == nil {
		var head map[string]map[string][]float64
		head, err = readRuns(args[split+1:])
		if err == nil {
			return printComparison(s, base, head, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// readRuns collects, per workload and metric, one value per run. A file
// holds result lines: records as the all-workloads mode prints them, or
// bare single-workload results, whose workload is the file name up to
// its first dot (clicklog.3.json). Other lines are skipped.
func readRuns(files []string) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		fallback, _, _ := strings.Cut(filepath.Base(f), ".")
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 1<<16), 1<<24)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 || line[0] != '{' {
				continue
			}
			var r record
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if r.Workload == "" {
				r.Workload = fallback
			}
			if runs[r.Workload] == nil {
				runs[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return runs, nil
}

func printComparison(s spec, base, head map[string]map[string][]float64, w io.Writer) int {
	var workloadsSeen []string
	for wl := range base {
		if head[wl] != nil {
			workloadsSeen = append(workloadsSeen, wl)
		}
	}
	sort.Strings(workloadsSeen)
	status := 0
	fmt.Fprintf(w, "%-15s %-13s %-40s %-40s %8s  %s\n", "workload", "metric", "base median [q1, q3] (n)", "head median [q1, q3] (n)", "worse", "verdict")
	for _, wl := range workloadsSeen {
		for _, m := range s.EndToEnd {
			a, b := base[wl][m.Name], head[wl][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(a, b, m.Bound, m.Better == "lower")
			if v == "regressed" || v == "unresolved" {
				status = 1
			}
			fmt.Fprintf(w, "%-15s %-13s %-40s %-40s %+7.1f%%  %s\n", wl, m.Name, summary(a), summary(b),
				100*worsening(median(a), median(b), m.Better == "lower"), v)
		}
	}
	if len(workloadsSeen) == 0 {
		fmt.Fprintln(w, "no workload appears on both sides")
		return 2
	}
	return status
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
}

// worsening is how much worse head is than base, as a share of base.
func worsening(base, head float64, lowerBetter bool) float64 {
	if lowerBetter {
		return (head - base) / base
	}
	return (base - head) / base
}

// judge returns one verdict for base and head runs of a metric, by the
// rules in the choosing-metrics guide: a head median worse than the base
// median by more than bound is regressed; a side whose quartile spread
// exceeds the bound is unresolved, unless every head run reads better
// than every base run; a head that wins at least 9 of every 10 pairs
// (base[i], head[i]) and whose median differs from the base median by
// more than the base's interquartile range is improved; anything else is
// within bound.
func judge(base, head []float64, bound float64, lowerBetter bool) string {
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	mb, mh := median(base), median(head)
	q1, q3 := quartiles(base)
	gap := mh - mb
	if gap < 0 {
		gap = -gap
	}
	improved := better(mh, mb) && 10*wins >= 9*pairs && gap > q3-q1
	switch {
	case allBetter && improved:
		return "improved"
	case allBetter:
		return "within bound"
	case spread(base) > bound || spread(head) > bound:
		return "unresolved"
	case worsening(mb, mh, lowerBetter) > bound:
		return "regressed"
	case improved:
		return "improved"
	}
	return "within bound"
}
