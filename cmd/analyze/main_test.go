package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// claimIDs returns the registry's claim IDs for the given experiments,
// in request order.
func claimIDs(ids ...string) []string {
	var out []string
	for _, id := range ids {
		e, _ := core.LookupExperiment(id)
		for _, c := range e.Claims {
			out = append(out, c.ID)
		}
	}
	return out
}

// TestShapeChecksFile runs an experiment subset with -out and checks
// that shape_checks.txt holds exactly those experiments' claim lines,
// which the terminal output repeats.
func TestShapeChecksFile(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run([]string{"-exp", "fig3,table2", "-scale", "small", "-out", dir}, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "shape_checks.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if !strings.HasPrefix(line, "[OK  ] ") && !strings.HasPrefix(line, "[DIFF] ") {
			t.Fatalf("not a claim line: %q", line)
		}
		if !strings.Contains(stdout.String(), line+"\n") {
			t.Errorf("terminal output lacks %q", line)
		}
		got = append(got, strings.Fields(line[7:])[0])
	}
	if want := claimIDs("fig3", "table2"); !reflect.DeepEqual(got, want) {
		t.Errorf("claim lines for %v, want %v", got, want)
	}
}

// TestJSONCarriesNoClaims pins the -json wire format: claims are a
// report of the batch run, never part of the document.
func TestJSONCarriesNoClaims(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-exp", "fig3,table2", "-scale", "small", "-json"}, &stdout); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []map[string]json.RawMessage `json:"results"`
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(stdout.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got := keys(top); !reflect.DeepEqual(got, []string{"config_hash", "results", "schema", "seed"}) {
		t.Errorf("document keys %v", got)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("%d results, want 2", len(doc.Results))
	}
	for _, r := range doc.Results {
		if got := keys(r); !reflect.DeepEqual(got, []string{"elapsed_ms", "id", "title", "value"}) {
			t.Errorf("result keys %v", got)
		}
	}
	for _, id := range claimIDs("fig3", "table2") {
		if bytes.Contains(stdout.Bytes(), []byte(id)) {
			t.Errorf("JSON output mentions claim %s", id)
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
