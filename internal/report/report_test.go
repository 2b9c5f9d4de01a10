package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func testStudy() *core.Study {
	return core.NewStudy(core.Config{
		Seed:            5,
		Entities:        600,
		DirectoryHosts:  900,
		CatalogN:        800,
		EventsPerSource: 20000,
	})
}

func TestValid(t *testing.T) {
	for _, id := range core.ExperimentIDs() {
		if !Valid(id) {
			t.Errorf("%s should be valid", id)
		}
	}
	if Valid("fig99") {
		t.Error("fig99 should be invalid")
	}
}

// TestRunUnknown checks that an unknown ID fails the whole request
// before anything runs or is written.
func TestRunUnknown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	var out bytes.Buffer
	if err := RunMany(testStudy(), []string{"table1", "nope"}, dir, &out, 1); err == nil {
		t.Error("unknown experiment should fail")
	}
	if out.Len() != 0 {
		t.Errorf("output before failing: %q", out.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("output directory created before failing: %v", err)
	}
}

func TestRunAllWritesFiles(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunMany(testStudy(), core.ExperimentIDs(), dir, &out, 0); err != nil {
		t.Fatal(err)
	}
	// Every experiment must leave at least one file and print a header.
	wantFiles := []string{
		"table1.txt",
		"fig1_restaurants_phone.tsv",
		"fig2_schools_homepage.tsv",
		"fig3_books_isbn.tsv",
		"fig4a_restaurant_reviews.tsv",
		"fig4b_aggregate_reviews.tsv",
		"fig5_greedy_cover.tsv",
		"fig6_yelp_search.tsv",
		"fig7_imdb_browse.tsv",
		"fig8_amazon_search.tsv",
		"table2.txt",
		"fig9_books_isbn.tsv",
		"shape_checks.txt",
	}
	for _, f := range wantFiles {
		path := filepath.Join(dir, f)
		st, err := os.Stat(path)
		if err != nil {
			t.Errorf("missing output %s", f)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("empty output %s", f)
		}
	}
	text := out.String()
	for _, header := range []string{
		"Pipeline:", "build index/restaurants", "build demand/yelp", "run   table2",
		"Table 1", "Fig 3", "Fig 4", "Fig 5", "Fig 6", "Fig 7", "Fig 8", "Table 2", "Fig 9",
		"Shape checks", "fig1a-top10", "fig9-top10",
	} {
		if !strings.Contains(text, header) {
			t.Errorf("summary missing %q", header)
		}
	}
}

func TestRunManySubset(t *testing.T) {
	var out bytes.Buffer
	if err := RunMany(testStudy(), []string{"table1", "fig3"}, "", &out, 2); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Table 1") || !strings.Contains(text, "Fig 3") {
		t.Errorf("subset output incomplete:\n%s", text)
	}
	if strings.Contains(text, "Fig 5") {
		t.Error("unselected experiment rendered")
	}
	if err := RunMany(testStudy(), []string{"fig99"}, "", &out, 1); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestRunWithoutOutDir(t *testing.T) {
	var out bytes.Buffer
	if err := RunMany(testStudy(), []string{"table1"}, "", &out, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Books") {
		t.Error("table1 text missing")
	}
}

func TestTSVParseable(t *testing.T) {
	dir := t.TempDir()
	if err := RunMany(testStudy(), []string{"fig3"}, dir, &bytes.Buffer{}, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3_books_isbn.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	blocks := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "# ") {
			blocks++
			continue
		}
		if l == "" {
			continue
		}
		if parts := strings.Split(l, "\t"); len(parts) != 2 {
			t.Fatalf("bad tsv line %q", l)
		}
	}
	if blocks != core.KCoverageMax {
		t.Errorf("tsv blocks = %d, want %d", blocks, core.KCoverageMax)
	}
}
