package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a module named repro in a temp dir (so the
// analyzers' repro/internal/<pkg> package sets apply) and makes it the
// working directory, which is where reprolint loads from.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module repro\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// runOut runs reprolint with args and returns its exit code and output.
func runOut(args ...string) (int, string) {
	var out bytes.Buffer
	code := run(args, &out)
	return code, out.String()
}

const nondetermDist = `package dist

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`

// failStub stands in for repro/internal/fail, like the lint fixture stub.
const failStub = `package fail

type Point struct{ name string }

func Register(name string) *Point { return &Point{name: name} }

func (p *Point) Fail() error { return nil }
`

func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	t.Chdir(filepath.Join("..", ".."))
	if code, out := runOut("./..."); code != 0 {
		t.Fatalf("exit %d on the repo tree, want 0:\n%s", code, out)
	}
}

func TestNondeterminismFinding(t *testing.T) {
	writeModule(t, map[string]string{"internal/dist/dist.go": nondetermDist})
	code, out := runOut("./...")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (findings):\n%s", code, out)
	}
	if !strings.Contains(out, "dist.go:5:") || !strings.Contains(out, "time.Now in a determinism-critical package") || !strings.Contains(out, "[determinism]") {
		t.Errorf("missing positioned determinism finding:\n%s", out)
	}
}

func TestDuplicateFailpointAcrossPackages(t *testing.T) {
	writeModule(t, map[string]string{
		"internal/fail/fail.go": failStub,
		"internal/a/a.go":       "package a\n\nimport \"repro/internal/fail\"\n\nvar fp = fail.Register(\"shared/site\")\n",
		"internal/b/b.go":       "package b\n\nimport \"repro/internal/fail\"\n\nvar fp = fail.Register(\"shared/site\")\n",
	})
	code, out := runOut("./...")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (findings):\n%s", code, out)
	}
	if !strings.Contains(out, `b.go:5:24: failpoint "shared/site" already registered by package repro/internal/a`) {
		t.Errorf("missing cross-package failpoint finding:\n%s", out)
	}
}

func TestLoadErrors(t *testing.T) {
	writeModule(t, map[string]string{
		"internal/dist/dist.go": "package dist\n\nfunc Pure(x int) int { return x * 2 }\n",
		"cmd/pure/main.go":      "package main\n\nimport \"repro/internal/dist\"\n\nfunc main() { println(dist.Pure(2)) }\n",
	})
	if code, out := runOut("./..."); code != 0 {
		t.Fatalf("exit %d on a clean module, want 0:\n%s", code, out)
	}
	for _, pattern := range []string{"./nosuch/...", "./internal/nosuch..."} {
		if code, out := runOut(pattern); code != 1 {
			t.Errorf("pattern %s: exit %d, want 1 (matches no package):\n%s", pattern, code, out)
		}
	}
}

// TestRejectsFlags: a flag argument never narrows the analyzer set (and
// so never hides a finding behind exit 0); it is a usage error.
func TestRejectsFlags(t *testing.T) {
	for _, arg := range []string{"-noalloc=false", "-failpoint", "-V=full", "-flags", "-h"} {
		code, out := runOut(arg)
		if code == 0 {
			t.Errorf("%s: exit 0, want non-zero", arg)
		}
		if !strings.Contains(out, "usage: reprolint [packages]") {
			t.Errorf("%s: no usage line:\n%s", arg, out)
		}
	}
}

// TestTestOnlySeesWholeModule: a function whose only production caller
// lives outside the patterns is not reported, because testonly gathers
// references from the whole module; one with no production caller is.
func TestTestOnlySeesWholeModule(t *testing.T) {
	writeModule(t, map[string]string{
		"internal/a/a.go":      "package a\n\nfunc Used() int { return 1 }\n\nfunc Unused() int { return Used() }\n",
		"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestUnused(t *testing.T) { _ = Unused() }\n",
		"cmd/b/main.go":        "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { println(a.Used()) }\n",
	})
	code, out := runOut("./internal/a")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (findings):\n%s", code, out)
	}
	if strings.Contains(out, "a.Used ") || !strings.Contains(out, "a.go:5:6: repro/internal/a.Unused has no caller outside tests") {
		t.Errorf("want one testonly finding, for Unused only:\n%s", out)
	}
}
