package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

func TestImporterUnsafe(t *testing.T) {
	wi := &worldImporter{w: &World{}}
	if p, err := wi.Import("unsafe"); err != nil || p != types.Unsafe {
		t.Errorf("worldImporter.Import(unsafe) = %v, %v", p, err)
	}
}

func TestRunGoError(t *testing.T) {
	if _, err := runGo(".", "not-a-go-subcommand"); err == nil {
		t.Error("runGo must surface go tool failures")
	}
}

func TestLookupExportMissing(t *testing.T) {
	w := &World{exports: map[string]string{}}
	if _, err := w.lookupExport("no/such/pkg"); err == nil {
		t.Error("lookupExport must fail for unknown packages")
	}
}

func TestJoinDir(t *testing.T) {
	if got := joinDir("/d", "/abs/f.go"); got != "/abs/f.go" {
		t.Errorf("joinDir absolute = %q", got)
	}
	if got := joinDir("/d", "f.go"); got != "/d/f.go" {
		t.Errorf("joinDir relative = %q", got)
	}
}

// TestLoadRepoTestVariants: an external test package sees identifiers
// its package defines only in in-package test files, including through
// a module package that imports the package under test, as `go test`
// builds them.
func TestLoadRepoTestVariants(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":           "module m\n\ngo 1.24\n",
		"p/p.go":           "package p\n\ntype T struct{}\n\nfunc New() *T { return &T{} }\n",
		"p/helper_test.go": "package p\n\nfunc (*T) Oracle() int { return 1 }\n",
		"p/p_ext_test.go":  "package p_test\n\nimport (\n\t\"testing\"\n\n\t\"m/p\"\n\t\"m/q\"\n)\n\nfunc TestX(t *testing.T) {\n\t_ = p.New().Oracle() + q.Wrap().Oracle()\n}\n",
		"q/q.go":           "package q\n\nimport \"m/p\"\n\nfunc Wrap() *p.T { return p.New() }\n",
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := LoadRepo(dir, []string{"./..."}, true)
	if err != nil {
		t.Fatal(err)
	}
	xtests := 0
	for _, pkg := range w.Packages {
		if pkg.XTest {
			xtests++
		}
	}
	if xtests != 1 {
		t.Fatalf("loaded %d external test packages, want 1", xtests)
	}
}
