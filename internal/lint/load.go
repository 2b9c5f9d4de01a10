package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// The loader turns a module directory into typed syntax using only the
// standard library and the go command: `go list` supplies the package
// graph and (for non-module dependencies) compiled export data, module
// packages typecheck from source. This is the offline stand-in for
// golang.org/x/tools/go/packages that reprolint's standalone mode, the
// fixture tests, and the repo cross-check test all share.

// listPkg is the slice of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Name         string
	Export       string
	Standard     bool
	ForTest      string
	DepOnly      bool
	Module       *struct{ Path string }
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
}

// Package is one typechecked analysis target.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	XTest bool
}

// World is a loaded module: analysis targets plus everything needed to
// resolve their imports.
type World struct {
	Fset     *token.FileSet
	Packages []*Package // analysis targets, listing order (XTest packages after their base)

	dir        string
	tests      bool
	listed     map[string]*listPkg
	exports    map[string]string
	plain      map[string]*Package // source-typechecked plain variants, by import path
	checking   map[string]bool     // cycle guard for ensurePlain
	gc         types.ImporterFrom
	parseCache map[string]*ast.File
}

// LoadRepo loads the module rooted at dir. patterns are go package
// patterns (e.g. "./..."). With tests set, each matched package is
// typechecked in its augmented form (compiled files + in-package test
// files) and external _test packages are loaded alongside — the shape
// the cross-check test needs; analyzers themselves always skip _test.go
// files, so diagnostics are identical either way.
func LoadRepo(dir string, patterns []string, tests bool) (*World, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	w := &World{
		Fset:       token.NewFileSet(),
		dir:        dir,
		tests:      tests,
		listed:     make(map[string]*listPkg),
		exports:    make(map[string]string),
		plain:      make(map[string]*Package),
		checking:   make(map[string]bool),
		parseCache: make(map[string]*ast.File),
	}
	w.gc = importer.ForCompiler(w.Fset, "gc", w.lookupExport).(types.ImporterFrom)

	// Phase 1: the package graph, without compiling anything.
	args := []string{"list", "-deps", "-json=ImportPath,Dir,Name,Standard,ForTest,DepOnly,Module,GoFiles,TestGoFiles,XTestGoFiles,Imports"}
	if tests {
		args = append(args, "-test")
	}
	args = append(args, "--")
	args = append(args, patterns...)
	out, err := runGo(dir, args...)
	if err != nil {
		return nil, err
	}
	var roots []*listPkg
	if err := decodeList(out, func(lp *listPkg) {
		if lp.ForTest != "" || strings.ContainsAny(lp.ImportPath, " [") || strings.HasSuffix(lp.ImportPath, ".test") {
			return // test variants are rebuilt from source below
		}
		w.listed[lp.ImportPath] = lp
		if lp.Module != nil && !lp.Standard && !lp.DepOnly {
			roots = append(roots, lp)
		}
	}); err != nil {
		return nil, err
	}

	// Phase 2: export data for every non-module dependency.
	var std []string
	for path, lp := range w.listed {
		if lp.Module == nil || lp.Standard {
			std = append(std, path)
		}
	}
	if len(std) > 0 {
		out, err := runGo(dir, append([]string{"list", "-export", "-json=ImportPath,Export", "--"}, std...)...)
		if err != nil {
			return nil, err
		}
		if err := decodeList(out, func(lp *listPkg) {
			if lp.Export != "" {
				w.exports[lp.ImportPath] = lp.Export
			}
		}); err != nil {
			return nil, err
		}
	}

	// Phase 3: typecheck the targets from source.
	for _, lp := range roots {
		if !tests {
			pkg, err := w.ensurePlain(lp.ImportPath)
			if err != nil {
				return nil, err
			}
			w.Packages = append(w.Packages, pkg)
			continue
		}
		aug, err := w.checkSource(lp.ImportPath, lp.Dir, concat(lp.GoFiles, lp.TestGoFiles, lp.Dir), &worldImporter{w: w})
		if err != nil {
			return nil, err
		}
		w.Packages = append(w.Packages, aug)
		if len(lp.XTestGoFiles) > 0 {
			vi := &variantImporter{
				w:     w,
				under: lp.ImportPath,
				pkgs:  map[string]*types.Package{lp.ImportPath: aug.Types},
				reach: make(map[string]bool),
			}
			x, err := w.checkSource(lp.ImportPath+"_test", lp.Dir, concat(lp.XTestGoFiles, nil, lp.Dir), vi)
			if err != nil {
				return nil, err
			}
			x.XTest = true
			w.Packages = append(w.Packages, x)
		}
	}
	return w, nil
}

func concat(a, b []string, dir string) []string {
	out := make([]string, 0, len(a)+len(b))
	for _, f := range a {
		out = append(out, joinDir(dir, f))
	}
	for _, f := range b {
		out = append(out, joinDir(dir, f))
	}
	return out
}

func joinDir(dir, f string) string {
	if strings.HasPrefix(f, "/") {
		return f
	}
	return dir + "/" + f
}

// ensurePlain typechecks the plain (no test files) variant of a module
// package, memoized; non-module packages come from export data instead.
func (w *World) ensurePlain(path string) (*Package, error) {
	if pkg, ok := w.plain[path]; ok {
		return pkg, nil
	}
	lp := w.listed[path]
	if lp == nil || lp.Module == nil {
		return nil, fmt.Errorf("lint: package %q is not a module package", path)
	}
	if w.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	w.checking[path] = true
	defer delete(w.checking, path)
	pkg, err := w.checkSource(path, lp.Dir, concat(lp.GoFiles, nil, lp.Dir), &worldImporter{w: w})
	if err != nil {
		return nil, err
	}
	w.plain[path] = pkg
	return pkg, nil
}

// checkSource parses and typechecks one package from source, resolving
// its imports through imp.
func (w *World) checkSource(path, dir string, filenames []string, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := w.parseFile(fn)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect everything; Check returns the first
	}
	tpkg, err := conf.Check(path, w.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

func (w *World) parseFile(filename string) (*ast.File, error) {
	if f, ok := w.parseCache[filename]; ok {
		return f, nil
	}
	f, err := parser.ParseFile(w.Fset, filename, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	w.parseCache[filename] = f
	return f, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// worldImporter routes imports: module packages typecheck from source,
// "unsafe" is the builtin, everything else reads export data.
type worldImporter struct {
	w *World
}

func (wi *worldImporter) Import(path string) (*types.Package, error) {
	return wi.ImportFrom(path, "", 0)
}

func (wi *worldImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if lp := wi.w.listed[path]; lp != nil && lp.Module != nil {
		pkg, err := wi.w.ensurePlain(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return wi.w.gc.ImportFrom(path, srcDir, 0)
}

// variantImporter resolves an external test package's imports the way
// `go test` builds them: the package under test is its augmented form
// (with its in-package test files, so helpers defined there are
// visible), and every module package that imports it, directly or not,
// is typechecked again against that form.
type variantImporter struct {
	w     *World
	under string                    // import path of the package under test
	pkgs  map[string]*types.Package // the augmented package and rebuilt dependents
	reach map[string]bool           // memo: does a path import under?
}

func (vi *variantImporter) Import(path string) (*types.Package, error) {
	return vi.ImportFrom(path, "", 0)
}

func (vi *variantImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := vi.pkgs[path]; ok {
		return pkg, nil
	}
	if !vi.importsUnder(path) {
		return (&worldImporter{w: vi.w}).ImportFrom(path, srcDir, mode)
	}
	lp := vi.w.listed[path]
	pkg, err := vi.w.checkSource(path, lp.Dir, concat(lp.GoFiles, nil, lp.Dir), vi)
	if err != nil {
		return nil, err
	}
	vi.pkgs[path] = pkg.Types
	return pkg.Types, nil
}

// importsUnder reports whether the module package path imports the
// package under test, directly or transitively.
func (vi *variantImporter) importsUnder(path string) bool {
	if v, ok := vi.reach[path]; ok {
		return v
	}
	vi.reach[path] = false // cycle guard
	lp := vi.w.listed[path]
	if lp == nil || lp.Module == nil {
		return false
	}
	for _, imp := range lp.Imports {
		if imp == vi.under || vi.importsUnder(imp) {
			vi.reach[path] = true
			return true
		}
	}
	return false
}

func (w *World) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := w.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

func runGo(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, errors.New("lint: go " + strings.Join(args, " ") + ": " + msg)
	}
	return stdout.Bytes(), nil
}

func decodeList(out []byte, visit func(*listPkg)) error {
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("lint: decoding go list output: %w", err)
		}
		visit(&lp)
	}
}
