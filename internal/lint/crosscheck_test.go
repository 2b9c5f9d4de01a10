package lint

// Cross-checks between the static contract surface and the dynamic
// test suite: every function a test pins to zero allocations (via
// testing.AllocsPerRun compared against literal 0) must carry the
// //repro:noalloc directive, so the static analyzer guards the same
// surface the runtime pins do — and keeps guarding it on platforms
// where the allocation pins are skipped.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// repoWorld loads the whole module once (with test files) for every
// cross-check in this file.
var repoWorld = sync.OnceValues(func() (*World, error) {
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return LoadRepo(abs, []string{"./..."}, true)
})

// funcKey identifies a function across type-checker instances:
// package path + receiver type name + function name.
func funcKey(pkgPath, recv, name string) string {
	return pkgPath + "." + recv + "." + name
}

func declKey(pkgPath string, fd *ast.FuncDecl) string {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		if id, ok := t.(*ast.Ident); ok {
			recv = id.Name
		}
	}
	return funcKey(pkgPath, recv, fd.Name.Name)
}

func typesFuncKey(fn *types.Func) string {
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	return funcKey(fn.Pkg().Path(), recv, fn.Name())
}

// annotatedNoallocSet collects every //repro:noalloc function in the
// loaded world, keyed by funcKey. ParseDirectives binds production
// files only, so the doc comments of test-file functions are read here:
// an oracle moved into a _test.go file keeps its directive and its pin.
func annotatedNoallocSet(w *World) map[string]bool {
	set := make(map[string]bool)
	for _, pkg := range w.Packages {
		if pkg.XTest {
			continue // no production files in external test packages
		}
		dirs := ParseDirectives(w.Fset, pkg.Files)
		for fd := range dirs.NoallocFuncs {
			set[declKey(pkg.Path, fd)] = true
		}
		for _, f := range pkg.Files {
			if !isTestFile(w.Fset, f) {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
					for _, c := range fd.Doc.List {
						if c.Text == directivePrefix+dirNoalloc {
							set[declKey(pkg.Path, fd)] = true
						}
					}
				}
			}
		}
	}
	return set
}

// zeroPinnedFuncs finds, in pkg's _test.go files, every repo function
// called directly inside a testing.AllocsPerRun closure whose result is
// compared against literal 0 — the dynamic zero-allocation pins.
func zeroPinnedFuncs(fset *token.FileSet, pkg *Package, record func(key string, pos token.Position)) {
	for _, f := range pkg.Files {
		if !isTestFile(fset, f) {
			continue
		}
		walkNode(f, nil, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			fn := calleeFunc(pkg.Info, call)
			if fn == nil || fn.Name() != "AllocsPerRun" || fn.Pkg() == nil || fn.Pkg().Path() != "testing" {
				return true
			}
			closure, ok := call.Args[1].(*ast.FuncLit)
			if !ok {
				return true
			}
			if !resultComparedToZero(pkg.Info, call, stack) {
				return true // measured but not pinned to zero (e.g. budget checks)
			}
			ast.Inspect(closure.Body, func(inner ast.Node) bool {
				c, ok := inner.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(pkg.Info, c); callee != nil && callee.Pkg() != nil &&
					strings.HasPrefix(callee.Pkg().Path(), "repro/") {
					record(typesFuncKey(callee), fset.Position(c.Pos()))
				}
				return true
			})
			return true
		})
	}
}

// resultComparedToZero reports whether the AllocsPerRun call's result
// is assigned to a variable that the enclosing function compares
// against the literal 0 (the pin idiom: `if n := testing.AllocsPerRun(...);
// n != 0` or assign-then-`if n > 0`).
func resultComparedToZero(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	// The variable the result lands in.
	var obj types.Object
	for i := len(stack) - 1; i >= 0; i-- {
		if as, ok := stack[i].(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				obj = info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
			}
			break
		}
	}
	if obj == nil {
		return false
	}
	// The body to scan for the comparison.
	var body *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			body = fn.Body
		case *ast.FuncDecl:
			body = fn.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	pinned := false
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || pinned {
			return !pinned
		}
		if be.Op != token.NEQ && be.Op != token.GTR && be.Op != token.LSS {
			return true
		}
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		if be.Op == token.LSS { // `0 < n` form
			x, y = y, x
		}
		id, ok := x.(*ast.Ident)
		if !ok || (info.Uses[id] != obj && info.Defs[id] != obj) {
			return true
		}
		if lit, ok := y.(*ast.BasicLit); ok && lit.Value == "0" {
			pinned = true
		}
		return true
	})
	return pinned
}

// TestNoallocCoversAllocsPerRunPins: the //repro:noalloc set must be a
// superset of the dynamically pinned set.
func TestNoallocCoversAllocsPerRunPins(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	w, err := repoWorld()
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	annotated := annotatedNoallocSet(w)
	if len(annotated) == 0 {
		t.Fatal("found no //repro:noalloc annotations; directive parsing is broken")
	}
	if !annotated[funcKey("repro/internal/demand", "Aggregator", "AddRef")] {
		t.Fatal("missed the //repro:noalloc of demand's AddRef oracle; test-file directives are not read")
	}

	pinned := make(map[string]token.Position)
	for _, pkg := range w.Packages {
		zeroPinnedFuncs(w.Fset, pkg, func(key string, pos token.Position) {
			if _, ok := pinned[key]; !ok {
				pinned[key] = pos
			}
		})
	}
	// Guard the detector itself: these pins are known to exist.
	for _, known := range []string{
		funcKey("repro/internal/demand", "Aggregator", "FoldBatch"),
		funcKey("repro/internal/classify", "Scorer", "LogOdds"),
	} {
		if _, ok := pinned[known]; !ok {
			var got []string
			for k := range pinned {
				got = append(got, k)
			}
			sort.Strings(got)
			t.Fatalf("pin detector missed %s; detected pins:\n  %s", known, strings.Join(got, "\n  "))
		}
	}

	var missing []string
	for key, pos := range pinned {
		if !annotated[key] {
			missing = append(missing, key+" (pinned at "+pos.String()+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("zero-alloc pinned but not //repro:noalloc annotated: %s", m)
	}
	t.Logf("cross-check: %d annotated, %d dynamically pinned", len(annotated), len(pinned))
}

// TestRepoTreeLintClean: the committed tree must carry zero unexplained
// diagnostics — every finding is either fixed or hatched with a
// justification. This is the same bar CI's `go run ./cmd/reprolint ./...`
// step enforces.
func TestRepoTreeLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	res, err := RunRepo(repoRoot(t), "./...")
	if err != nil {
		t.Fatalf("RunRepo: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("%s: %s [%s]", res.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// TestGlobalFailpointUniqueness exercises the cross-package pass on
// synthetic data: the same site name registered from two packages is a
// finding, reported once, against the later package in sorted order.
func TestGlobalFailpointUniqueness(t *testing.T) {
	fset := token.NewFileSet()
	fa := fset.AddFile("a/a.go", -1, 100)
	fb := fset.AddFile("b/b.go", -1, 100)
	perPkg := map[string]map[string][]token.Pos{
		"repro/internal/a": {"site/x": {fa.Pos(10)}},
		"repro/internal/b": {"site/x": {fb.Pos(20)}, "site/y": {fb.Pos(30)}},
	}
	diags := GlobalFailpointDiags(fset, perPkg)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	msg := diags[0].Message
	if !strings.Contains(msg, `"site/x"`) || !strings.Contains(msg, "repro/internal/a") {
		t.Errorf("diagnostic must name the duplicated site and the first registering package; got %q", msg)
	}
	if fset.Position(diags[0].Pos).Filename != "b/b.go" {
		t.Errorf("diagnostic must point at the second registration; got %s", fset.Position(diags[0].Pos))
	}
}

// TestRepoFailpointNamesUnique: the real tree's failpoint names are
// globally unique and the set is non-trivial.
func TestRepoFailpointNamesUnique(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	w, err := repoWorld()
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	perPkg := make(map[string]map[string][]token.Pos)
	total := 0
	for _, pkg := range w.Packages {
		if pkg.XTest {
			continue
		}
		_, fps := RunPackage(w.Fset, pkg.Files, pkg.Types, pkg.Info, []*Analyzer{Failpoint})
		if len(fps) > 0 {
			perPkg[pkg.Path] = fps
			total += len(fps)
		}
	}
	if total < 5 {
		t.Fatalf("found only %d registered failpoints; the failpoint collector is broken", total)
	}
	for _, d := range GlobalFailpointDiags(w.Fset, perPkg) {
		t.Errorf("%s: %s", w.Fset.Position(d.Pos), d.Message)
	}
}
