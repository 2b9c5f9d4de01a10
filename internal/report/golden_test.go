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

// studyRow is one result TestStudyOutputsGolden pins, as
// `analyze -json -scale <scale> -seed <seed>` writes it. Extraction is
// how a study builds its indexes, not which result it holds, so each row
// is built both ways and both builds must give the one pinned digest.
type studyRow struct {
	scale string
	seed  uint64
}

func (r studyRow) key() string {
	return fmt.Sprintf("%s %d", r.scale, r.seed)
}

// raceEnabled is set when the test binary is built with -race
// (race_test.go).
var raceEnabled bool

// slow builds skip under -short and under -race: an extracting study
// costs about five times a direct one, and the default scale about as
// much again. The race detector multiplies that again, and the non-race
// run already makes every build.
func (r studyRow) slow(extraction bool) bool {
	return r.scale != "small" || (extraction && r.seed != 3)
}

var goldenRows = []studyRow{{"small", 3}, {"small", 11}, {"small", 42}, {"default", 42}}

// studyDigest is the SHA-256 of the JSON document `analyze -json` writes
// for the row, with every elapsed_ms zeroed: it reports how long a
// build took, so two runs of one configuration differ there and
// nowhere else.
func studyDigest(t *testing.T, r studyRow, extraction bool) string {
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
		UseExtraction:  extraction,
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
// every client that holds the old body. Each row's extracting build must
// match its direct build's digest: that is the whole-study check that
// full extraction and the model's decisions give one result, which is
// why Config.Hash leaves UseExtraction out. Run with -update (without
// -short or -race) to rewrite the file after a version bump.
func TestStudyOutputsGolden(t *testing.T) {
	if *update && (testing.Short() || raceEnabled) {
		t.Fatal("-update needs the whole matrix: run without -short and -race")
	}
	// got maps a row's key to its digests, direct build first; a
	// skipped build leaves "".
	got := make(map[string]*[2]string, len(goldenRows))
	for _, r := range goldenRows {
		got[r.key()] = new([2]string)
		for i, extraction := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s_%d_%t", r.scale, r.seed, extraction), func(t *testing.T) {
				if r.slow(extraction) && (testing.Short() || raceEnabled) {
					t.Skip("slow build; runs without -short and -race")
				}
				got[r.key()][i] = studyDigest(t, r, extraction)
			})
		}
	}
	if t.Failed() {
		return
	}
	if *update {
		var b strings.Builder
		b.WriteString("# scale seed sha256 (analyze -json, elapsed_ms zeroed; extraction off and on); regenerate: go test ./internal/report -run TestStudyOutputsGolden -update\n")
		fmt.Fprintf(&b, "version %s\n", core.HashVersion)
		for _, r := range goldenRows {
			d := got[r.key()]
			if d[1] != d[0] {
				t.Fatalf("%s: extracting build digest %s, direct %s: no one digest to pin", r.key(), d[1], d[0])
			}
			fmt.Fprintf(&b, "%s %s\n", r.key(), d[0])
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
		case len(fields) == 3:
			key := strings.Join(fields[:2], " ")
			d, ok := got[key]
			if !ok {
				t.Errorf("%s: pinned in %s but not run by the test", key, goldenPath)
				continue
			}
			pinned++
			if version != core.HashVersion {
				t.Fatalf("%s was recorded under Config.Hash version %q, the code is at %q: rerun with -update",
					goldenPath, version, core.HashVersion)
			}
			if d[0] != "" && d[0] != fields[2] {
				t.Errorf("%s: output digest %s, pinned %s, while core.HashVersion is still %q: "+
					"bump core.HashVersion so no cache serves the old output under its ETag, then rerun with -update",
					key, d[0], fields[2], version)
			}
			if d[1] != "" && d[1] != fields[2] {
				t.Errorf("%s: extracting build digest %s, pinned %s: extraction must give the direct build's output",
					key, d[1], fields[2])
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
