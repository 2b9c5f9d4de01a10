// Package lint is reprolint: a static-analysis suite that enforces the
// repository's runtime contracts at compile time instead of bench time.
// Each load-bearing guarantee that previously existed only as a runtime
// check — AllocsPerRun pins on the 0-alloc hot paths, golden SHA-256
// snapshots of the deterministic click streams, the batch-amortized
// instrumentation discipline, the registered-failpoint convention — has
// a corresponding analyzer here, so breaking one fails `reprolint` with
// a named diagnostic before it can drift a BENCH row.
//
// The six analyzers:
//
//   - noalloc: functions annotated `//repro:noalloc` must not contain
//     allocation-forcing constructs (string concatenation, string<->[]byte
//     conversions, map/slice literals, make/new, fmt/errors calls,
//     interface boxing at call sites, escaping closures, defer in loops,
//     go statements, un-hinted append growth in loops). The escape hatch
//     `//repro:alloc-ok <why>` suppresses a finding on its line and must
//     carry a justification.
//   - determinism: in the determinism-critical packages (dist, demand,
//     seg, core, logs) flag time.Now/time.Since, the globally seeded
//     math/rand entry points, and map iteration whose order can reach a
//     slice, hash, output stream, or channel send. The escape hatch is
//     `//repro:nondeterm-ok <why>` (timing/obs boundaries).
//   - obsbatch: in the hot-path packages, obs Counter/Gauge/Histogram
//     record calls and span starts must not sit lexically inside a loop —
//     instrumentation is per window/batch, never per element. The escape
//     hatch is `//repro:obs-ok <why>` (per-window sites inside batch
//     loops).
//   - failpoint: every fail.Register/Arm/Lookup/Disarm site must name its
//     site with a string literal, Register must happen exactly once per
//     name from a package-level var, and site names must be globally
//     unique across packages (the global half runs once per RunRepo,
//     over every loaded package).
//   - testonly: every function or method declared in a non-test file
//     must be referenced from a non-test file of the module, outside its
//     own body (main, init and interface-satisfying methods exempt).
//     It runs once per RunRepo over the whole module. The escape hatch
//     `//repro:testonly-ok <why>` on the line above the func names the
//     caller outside production code: a file of the separate bench
//     module, another package's test, or the failpoint test API.
//   - directive: a pseudo-analyzer that validates the `//repro:`
//     comments themselves: unknown verbs, misplaced `//repro:noalloc`,
//     and escape hatches missing their justification are all
//     diagnostics.
//
// The suite runs two ways: `reprolint ./...` (cmd/reprolint over
// RunRepo, which loads the module via `go list` and typechecks from
// source), and in-process from the tests in this package (fixture
// packages under testdata/src with `// want` expectations,
// analysistest-style).
//
// All analyzers skip _test.go files: the contracts bind production code,
// and test files are where AllocsPerRun/golden tests legitimately use
// the constructs the analyzers exist to flag.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check, analogous to
// golang.org/x/tools/go/analysis.Analyzer (unavailable offline; the
// framework here is a stdlib-only reimplementation of the slice of it
// this repo needs).
type Analyzer struct {
	Name string
	Doc  string
	// Hatch is the escape-hatch directive verb (e.g. "alloc-ok") whose
	// presence on a diagnostic's line suppresses the finding. Empty
	// means the analyzer has no escape hatch.
	Hatch string
	Run   func(*Pass)
}

// Pass carries one package's worth of typed syntax through an analyzer,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File // compiled files of the package (tests excluded upstream of analyzers)
	Pkg      *types.Package
	Info     *types.Info
	Dirs     *Directives

	// Failpoints collects the names this package registers, for the
	// cross-package uniqueness check in RunRepo.
	Failpoints map[string][]token.Pos

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned in Fset.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos unless an escape hatch for this
// analyzer suppresses that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Analyzer.Hatch != "" && p.Dirs.Suppressed(p.Analyzer.Hatch, p.Fset.Position(pos)) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DirectiveAnalyzer, Noalloc, Determinism, Obsbatch, Failpoint}
}

// RunPackage runs the given analyzers over one typed package and returns
// the surviving (non-suppressed) diagnostics sorted by position, plus
// the failpoint names the package registers (for the cross-package
// uniqueness check; nil when the failpoint analyzer didn't run). files
// should be the package's compiled files; analyzers themselves skip any
// file whose name ends in _test.go so augmented test variants produce
// the same findings as the base package.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, map[string][]token.Pos) {
	var diags []Diagnostic
	var failpoints map[string][]token.Pos
	dirs := ParseDirectives(fset, files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Dirs:     dirs,
			diags:    &diags,
		}
		a.Run(pass)
		if pass.Failpoints != nil {
			failpoints = pass.Failpoints
		}
	}
	sortDiags(fset, diags)
	return diags, failpoints
}

func sortDiags(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// isTestFile reports whether the file's position name ends in _test.go.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// prodFiles filters the pass's files down to non-test files.
func (p *Pass) prodFiles() []*ast.File {
	out := p.Files[:0:0]
	for _, f := range p.Files {
		if !isTestFile(p.Fset, f) {
			out = append(out, f)
		}
	}
	return out
}

// walk traverses each file keeping an ancestor stack: fn is called with
// the node and the stack of its ancestors (outermost first, node
// excluded). Returning false prunes the subtree.
func walk(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			ok := fn(n, stack)
			if ok {
				stack = append(stack, n)
			}
			return ok
		})
	}
}

// walkNode is walk over a single subtree with an initial ancestor stack.
func walkNode(root ast.Node, base []ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	stack := append([]ast.Node(nil), base...)
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(n, stack)
		if ok {
			stack = append(stack, n)
		}
		return ok
	})
}

// calleeFunc resolves the called function or method object of a call,
// or nil (builtins, conversions, indirect calls through variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathBase returns the last element of an import path.
func pkgPathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isRepoPkg reports whether pkg is the repo package with the given base
// name (repro/internal/<base>), or a fixture stub standing in for it
// (import path exactly <base>, as laid out under testdata/src).
func isRepoPkg(pkg *types.Package, base string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == "repro/internal/"+base || p == base
}
