// Command analyze runs one, several, or all of the paper's experiments
// through the concurrent experiment registry and emits their data files,
// terminal previews and paper-claim verdicts (shape_checks.txt) — or,
// with -json, the same JSON wire document the HTTP serving layer
// (cmd/serve) returns, so batch and online consumers share one encoding.
//
// Usage:
//
//	analyze -exp fig1 -scale small -seed 1 -out out/
//	analyze -exp fig6,fig7,fig8 -workers 8 -out out/
//	analyze -exp all -scale default -out out/
//	analyze -exp fig3,table2 -json > results.json
//
// Run with -h to list the experiment IDs (sourced from the registry
// metadata, core.ExperimentInfos). Artifact builds and analyses fan out
// across -workers goroutines; the output is identical for every worker
// count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment ids, comma-separated ("+strings.Join(core.ExperimentIDs(), ", ")+", or all)")
	scale := fs.String("scale", "small", "experiment scale: small, default, large")
	seed := fs.Uint64("seed", 1, "master seed")
	outDir := fs.String("out", "out", "output directory (empty: terminal only)")
	jsonOut := fs.Bool("json", false, "emit the shared JSON wire document (schema "+report.SchemaV1+") to stdout instead of rendering files/previews")
	extraction := fs.Bool("extraction", false, "build indexes via the full render+parse+extract pipeline instead of direct model decisions")
	workers := fs.Int("workers", 0, "worker pool size for artifact builds, analyses, extraction and demand shards (0: GOMAXPROCS)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file after the run")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON of pipeline/build/experiment spans to this file (load in chrome://tracing or Perfetto)")
	// Help lists the registry's experiments, so it matches what can run.
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "Usage of %s:\n", os.Args[0])
		fs.PrintDefaults()
		fmt.Fprintf(w, "\nExperiments (from the registry):\n")
		for _, info := range core.ExperimentInfos() {
			fmt.Fprintf(w, "  %-8s %s (needs %d artifacts)\n", info.ID, info.Title, len(info.Needs))
		}
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *trace != "" {
		obs.EnableTracing(0)
		defer func() {
			if err := obs.WriteTraceFile(*trace); err != nil {
				fmt.Fprintln(os.Stderr, "analyze: write trace:", err)
			}
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "analyze: create mem profile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "analyze: write mem profile:", err)
			}
		}()
	}

	sc, err := synth.ParseScale(*scale)
	if err != nil {
		return err
	}
	study := core.NewStudy(core.Config{
		Seed:           *seed,
		Entities:       sc.Entities,
		DirectoryHosts: sc.DirectoryHosts,
		CatalogN:       sc.Entities,
		UseExtraction:  *extraction,
		Workers:        *workers,
	})
	ids := core.ExperimentIDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
		}
	}
	if *jsonOut {
		rep, err := study.RunExperiments(context.Background(), ids, *workers)
		if err != nil {
			return err
		}
		return report.WriteJSON(stdout, study, rep)
	}
	return report.RunMany(study, ids, *outDir, stdout, *workers)
}
