package core_test

// Black-box tests of the concurrent artifact engine: singleflight
// build-once semantics under goroutine contention (run with -race) and
// bit-identical parallel-vs-serial reproduction.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/logs"
	"repro/internal/report"
)

func smallConfig() core.Config {
	return core.Config{
		Seed:            21,
		Entities:        900,
		DirectoryHosts:  1400,
		CatalogN:        2500,
		EventsPerSource: 50000,
	}
}

// TestDistinctKeysBuildExactlyOnce hammers the Study from many
// goroutines — several per key, across Indexes, Catalog and Demand —
// and asserts every artifact builder ran exactly once per key.
func TestDistinctKeysBuildExactlyOnce(t *testing.T) {
	s := core.NewStudy(smallConfig())
	domains := entity.LocalBusinessDomains[:4]
	const callersPerKey = 6

	var wg sync.WaitGroup
	errs := make(chan error, callersPerKey*(len(domains)+2*len(logs.Sites)))
	for c := 0; c < callersPerKey; c++ {
		for _, d := range domains {
			wg.Add(1)
			go func(d entity.Domain) {
				defer wg.Done()
				if _, err := s.Indexes(d); err != nil {
					errs <- err
				}
			}(d)
		}
		for _, site := range logs.Sites {
			wg.Add(2)
			go func(site logs.Site) {
				defer wg.Done()
				if _, err := s.Catalog(site); err != nil {
					errs <- err
				}
			}(site)
			go func(site logs.Site) {
				defer wg.Done()
				if _, err := s.Demand(site); err != nil {
					errs <- err
				}
			}(site)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	got := s.BuildStats()
	want := core.BuildStats{
		Webs:     len(domains),
		Indexes:  len(domains),
		Catalogs: len(logs.Sites),
		Demands:  len(logs.Sites),
	}
	if got != want {
		t.Errorf("build stats %+v, want %+v (each key must build exactly once)", got, want)
	}
}

// TestRunAllMatchesSerial is the determinism contract: a parallel
// RunAll must produce results whose wire encoding is byte-identical to
// a Study driven serially with the same seed.
func TestRunAllMatchesSerial(t *testing.T) {
	parallel := core.NewStudy(smallConfig())
	rep, err := parallel.RunAll(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(core.ExperimentIDs()) {
		t.Fatalf("results = %d, want %d", len(rep.Results), len(core.ExperimentIDs()))
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if r.Value == nil {
			t.Fatalf("%s: nil value", r.ID)
		}
	}
	stats := parallel.BuildStats()
	if stats.Webs != len(entity.AllDomains) || stats.Indexes != len(entity.AllDomains) {
		t.Errorf("webs/indexes built %d/%d times, want %d each",
			stats.Webs, stats.Indexes, len(entity.AllDomains))
	}
	if stats.Demands != len(logs.Sites) || stats.Catalogs != len(logs.Sites) {
		t.Errorf("catalogs/demands built %d/%d times, want %d each",
			stats.Catalogs, stats.Demands, len(logs.Sites))
	}

	serial := core.NewStudy(smallConfig())
	for _, r := range rep.Results {
		e, _ := core.LookupExperiment(r.ID)
		v, err := e.Run(serial)
		if err != nil {
			t.Fatalf("%s on serial study: %v", r.ID, err)
		}
		if !bytes.Equal(wire(t, r.Value), wire(t, v)) {
			t.Errorf("experiment %s: parallel and serial results differ", r.ID)
		}
	}
}

// wire returns v's JSON wire encoding (report.EncodeResult).
func wire(t *testing.T, v any) []byte {
	t.Helper()
	rw, err := report.EncodeResult(core.RunResult{Value: v})
	if err != nil {
		t.Fatal(err)
	}
	return rw.Value
}

// TestRunExperimentsSubsetAndWorkerCounts checks that any worker count
// yields the same per-experiment values as workers=1.
func TestRunExperimentsSubsetAndWorkerCounts(t *testing.T) {
	ids := []string{"table1", "fig3", "fig6"}
	run := func(workers int) []byte {
		rep, err := core.NewStudy(smallConfig()).RunExperiments(context.Background(), ids, workers)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for _, r := range rep.Results {
			out = append(out, wire(t, r.Value)...)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 16} {
		if !bytes.Equal(run(workers), want) {
			t.Errorf("workers=%d: output differs from workers=1", workers)
		}
	}
}

func TestRunExperimentsUnknownID(t *testing.T) {
	s := core.NewStudy(smallConfig())
	if _, err := s.RunExperiments(context.Background(), []string{"fig99"}, 2); err == nil {
		t.Error("unknown experiment id should fail")
	}
}

func TestRunAllCancelledContext(t *testing.T) {
	s := core.NewStudy(smallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := s.RunAll(ctx, 4)
	if err == nil {
		t.Fatal("cancelled context should error")
	}
	for _, r := range rep.Results {
		if r.ID == "" {
			t.Error("skipped result missing its experiment ID")
		}
	}
}

func TestLookupExperiment(t *testing.T) {
	for _, id := range core.ExperimentIDs() {
		e, ok := core.LookupExperiment(id)
		if !ok || e.ID != id || e.Title == "" || e.Run == nil {
			t.Errorf("registry entry %q malformed: %+v", id, e)
		}
	}
	if _, ok := core.LookupExperiment("nope"); ok {
		t.Error("bogus id resolved")
	}
}
