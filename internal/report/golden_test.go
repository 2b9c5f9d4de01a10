package report

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/study_outputs.txt from the current code")

const goldenPath = "testdata/study_outputs.txt"

// studyRow is one configuration TestStudyOutputsGolden pins, built as
// `analyze -json -scale <scale> -seed <seed> [-extraction]` builds it.
type studyRow struct {
	scale      string
	seed       uint64
	extraction bool
}

func (r studyRow) key() string {
	return fmt.Sprintf("%s %d %t", r.scale, r.seed, r.extraction)
}

// raceEnabled is set when the test binary is built with -race
// (race_test.go).
var raceEnabled bool

// slow rows skip under -short and under -race: an extracting study
// costs about five times a direct one, and the default scale about as
// much again. The race detector multiplies that again, and the non-race
// run already pins every row.
func (r studyRow) slow() bool {
	return r.scale != "small" || (r.extraction && r.seed != 3)
}

var goldenRows = []studyRow{
	{"small", 3, false}, {"small", 3, true},
	{"small", 11, false}, {"small", 11, true},
	{"small", 42, false}, {"small", 42, true},
	{"default", 42, false},
}

// studyDigest is the SHA-256 of the JSON document `analyze -json` writes
// for the row, with every elapsed_ms zeroed: it reports how long a
// build took, so two runs of one configuration differ there and
// nowhere else.
func studyDigest(t *testing.T, r studyRow) string {
	t.Helper()
	sc, err := synth.ParseScale(r.scale)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStudy(core.Config{
		Seed:           r.seed,
		Entities:       sc.Entities,
		DirectoryHosts: sc.DirectoryHosts,
		CatalogN:       sc.Entities,
		UseExtraction:  r.extraction,
	})
	rep, err := s.RunAll(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		rep.Results[i].Elapsed = 0
	}
	h := sha256.New()
	if err := WriteJSON(h, s, rep); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStudyOutputsGolden pins every experiment's output for a matrix of
// configurations against testdata/study_outputs.txt, which also records
// the core.HashVersion they were produced under. Served ETags derive
// from the config hash, which starts with that version, so an output
// that changes while the version stays put would be revalidated 304 by
// every client that holds the old body. Run with -update (without
// -short or -race) to rewrite the file after a version bump.
func TestStudyOutputsGolden(t *testing.T) {
	if *update && (testing.Short() || raceEnabled) {
		t.Fatal("-update needs the whole matrix: run without -short and -race")
	}
	got := make(map[string]string, len(goldenRows))
	known := make(map[string]bool, len(goldenRows))
	for _, r := range goldenRows {
		known[r.key()] = true
		t.Run(strings.ReplaceAll(r.key(), " ", "_"), func(t *testing.T) {
			if r.slow() && (testing.Short() || raceEnabled) {
				t.Skip("slow row; runs without -short and -race")
			}
			got[r.key()] = studyDigest(t, r)
		})
	}
	if t.Failed() {
		return
	}
	if *update {
		var b strings.Builder
		b.WriteString("# scale seed extraction sha256 (analyze -json, elapsed_ms zeroed); regenerate: go test ./internal/report -run TestStudyOutputsGolden -update\n")
		fmt.Fprintf(&b, "version %s\n", core.HashVersion)
		for _, r := range goldenRows {
			fmt.Fprintf(&b, "%s %s\n", r.key(), got[r.key()])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	version, pinned := "", 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case strings.HasPrefix(sc.Text(), "#"):
		case len(fields) == 2 && fields[0] == "version":
			version = fields[1]
		case len(fields) == 4:
			key := strings.Join(fields[:3], " ")
			if !known[key] {
				t.Errorf("%s: pinned in %s but not run by the test", key, goldenPath)
				continue
			}
			pinned++
			want, ok := got[key]
			switch {
			case version != core.HashVersion:
				t.Fatalf("%s was recorded under Config.Hash version %q, the code is at %q: rerun with -update",
					goldenPath, version, core.HashVersion)
			case !ok: // a slow row, skipped under -short or -race
			case fields[3] != want:
				t.Errorf("%s: output digest %s, pinned %s, while core.HashVersion is still %q: "+
					"bump core.HashVersion so no cache serves the old output under its ETag, then rerun with -update",
					key, want, fields[3], version)
			}
		default:
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pinned != len(goldenRows) {
		t.Errorf("%s pins %d configurations, the test runs %d: rerun with -update", goldenPath, pinned, len(goldenRows))
	}
}
