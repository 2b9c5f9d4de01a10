package lint

// A stdlib-only reimplementation of the analysistest pattern: fixture
// packages live under testdata/src/<path>, diagnostics are asserted by
// `// want` comments carrying regexps on the line they are expected on,
// and fixture-local imports resolve to sibling fixture directories
// (stub obs/fail packages) while everything else comes from the
// toolchain's export data.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const (
	importsOnly = parser.ImportsOnly
	fullParse   = parser.ParseComments
)

func parseFileMode(fset *token.FileSet, path string, mode parser.Mode) (*ast.File, error) {
	return parser.ParseFile(fset, path, nil, mode)
}

func matchRe(re, s string) (bool, error) { return regexp.MatchString(re, s) }

func itoa(n int) string { return strconv.Itoa(n) }

type fixtureWorld struct {
	fset    *token.FileSet
	root    string
	pkgs    map[string]*Package
	exports map[string]string
	gc      types.ImporterFrom
}

var (
	fwOnce sync.Once
	fw     *fixtureWorld
	fwErr  error
)

// fixtures returns the shared fixture world, loading stdlib export data
// once per test binary.
func fixtures(t *testing.T) *fixtureWorld {
	t.Helper()
	fwOnce.Do(func() {
		w := &fixtureWorld{
			fset:    token.NewFileSet(),
			root:    filepath.Join("testdata", "src"),
			pkgs:    make(map[string]*Package),
			exports: make(map[string]string),
		}
		w.gc = importer.ForCompiler(w.fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := w.exports[path]
			if !ok {
				return nil, &os.PathError{Op: "export", Path: path, Err: os.ErrNotExist}
			}
			return os.Open(f)
		}).(types.ImporterFrom)
		fwErr = w.loadStdExports()
		fw = w
	})
	if fwErr != nil {
		t.Fatalf("loading stdlib export data: %v", fwErr)
	}
	return fw
}

// loadStdExports gathers every non-fixture import reachable from the
// fixture tree and resolves it to export data with one go list call.
func (w *fixtureWorld) loadStdExports() error {
	seen := make(map[string]bool)
	var std []string
	err := filepath.WalkDir(w.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parseImportsOnly(w.fset, path)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if seen[p] {
				continue
			}
			seen[p] = true
			if info, err := os.Stat(filepath.Join(w.root, p)); err == nil && info.IsDir() {
				continue // fixture-local stub
			}
			std = append(std, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(std) == 0 {
		return nil
	}
	sort.Strings(std)
	out, err := runGo(".", append([]string{"list", "-deps", "-export", "-json=ImportPath,Export", "--"}, std...)...)
	if err != nil {
		return err
	}
	return decodeList(out, func(lp *listPkg) {
		if lp.Export != "" {
			w.exports[lp.ImportPath] = lp.Export
		}
	})
}

func parseImportsOnly(fset *token.FileSet, path string) (*ast.File, error) {
	return parseFileMode(fset, path, importsOnly)
}

// load typechecks the fixture package at testdata/src/<path>, resolving
// fixture-local imports recursively.
func (w *fixtureWorld) load(t *testing.T, path string) *Package {
	t.Helper()
	pkg, err := w.ensure(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	return pkg
}

func (w *fixtureWorld) ensure(path string) (*Package, error) {
	if pkg, ok := w.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(w.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parseFileMode(w.fset, filepath.Join(dir, e.Name()), fullParse)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: &fixtureImporter{w: w}, Error: func(error) {}}
	tpkg, err := conf.Check(path, w.fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	w.pkgs[path] = pkg
	return pkg, nil
}

type fixtureImporter struct{ w *fixtureWorld }

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if info, err := os.Stat(filepath.Join(fi.w.root, path)); err == nil && info.IsDir() {
		pkg, err := fi.w.ensure(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return fi.w.gc.ImportFrom(path, ".", 0)
}

// runFixture analyzes one fixture package with the given analyzers
// (nil: the full suite) and checks its diagnostics against the
// `// want` expectations embedded in the fixture sources.
func runFixture(t *testing.T, path string, analyzers ...*Analyzer) {
	t.Helper()
	w := fixtures(t)
	pkg := w.load(t, path)
	if analyzers == nil {
		analyzers = Analyzers()
	}
	diags, _ := RunPackage(w.fset, pkg.Files, pkg.Types, pkg.Info, analyzers)
	checkWants(t, w.fset, pkg.Files, diags)
}

// A wantExpect is one expected-diagnostic regexp at a file:line.
type wantExpect struct {
	re      string
	matched bool
}

// checkWants parses `// want "re"` / `// want \x60re\x60` comments from
// the fixture files and reconciles them with the actual diagnostics:
// every diagnostic must match an expectation on its line and every
// expectation must be consumed.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	wants := make(map[string][]*wantExpect) // "file:line" -> expectations
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := pos.Filename + ":" + itoa(pos.Line)
				for _, re := range parseWantPatterns(t, c.Text[i+len("// want "):]) {
					wants[key] = append(wants[key], &wantExpect{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := pos.Filename + ":" + itoa(pos.Line)
		matched := false
		for _, exp := range wants[key] {
			if exp.matched {
				continue
			}
			ok, err := matchRe(exp.re, d.Message)
			if err != nil {
				t.Errorf("%s: bad want regexp %q: %v", key, exp.re, err)
				exp.matched = true
				continue
			}
			if ok {
				exp.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, exp := range wants[k] {
			if !exp.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, exp.re)
			}
		}
	}
}

// parseWantPatterns extracts the quoted regexps from the tail of a want
// comment: backquoted or double-quoted, space-separated.
func parseWantPatterns(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			return out
		}
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Errorf("unterminated want pattern %q", s)
				return out
			}
			out = append(out, s[1:1+end])
			s = s[end+2:]
		case '"':
			end := strings.IndexByte(s[1:], '"')
			if end < 0 {
				t.Errorf("unterminated want pattern %q", s)
				return out
			}
			out = append(out, s[1:1+end])
			s = s[end+2:]
		default:
			// Trailing prose after the patterns is allowed.
			return out
		}
	}
}

func TestNoallocFixture(t *testing.T)     { runFixture(t, "noalloc") }
func TestDeterminismFixture(t *testing.T) { runFixture(t, "dist") }
func TestObsbatchFixture(t *testing.T)    { runFixture(t, "demand") }
func TestFailpointFixture(t *testing.T)   { runFixture(t, "failpoint") }
func TestDirectiveFixture(t *testing.T)   { runFixture(t, "directive") }

// TestTestonlyFixture runs the whole-module testonly check over its
// fixture package. The unjustified hatch suppresses like a justified
// one, and its missing reason is a directive finding on the hatch line,
// where a want comment would become the reason, so it is checked here.
func TestTestonlyFixture(t *testing.T) {
	w := fixtures(t)
	pkg := w.load(t, "testonly")
	diags := TestOnlyDiags(w.fset, []*Package{pkg}, func(*Package) bool { return true })
	checkWants(t, w.fset, pkg.Files, diags)
	errs := ParseDirectives(w.fset, pkg.Files).errs
	if len(errs) != 1 || !strings.Contains(errs[0].Message, "//repro:testonly-ok requires a justification") {
		t.Errorf("directive findings = %+v, want one missing testonly-ok justification", errs)
	}
}

// TestPlainPackageClean: packages outside the critical sets produce no
// findings for the constructs the fixtures above flag.
func TestPlainPackageClean(t *testing.T) { runFixture(t, "plain") }

// TestAnalyzerRegistry pins the suite composition.
func TestAnalyzerRegistry(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || a.Run == nil {
			t.Fatalf("malformed analyzer %+v", a)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"directive", "noalloc", "determinism", "obsbatch", "failpoint"} {
		if !names[want] {
			t.Fatalf("missing analyzer %q", want)
		}
	}
}
