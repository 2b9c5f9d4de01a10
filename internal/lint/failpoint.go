package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
)

// Failpoint enforces the failpoint-site hygiene contract: site names
// are string literals (greppable, chaos-armable via FAILPOINTS=...),
// each name is registered exactly once, registration happens from a
// package-level var (so the site exists before any code path can
// evaluate it), and names are globally unique across packages. The
// global half of the uniqueness check needs whole-program visibility,
// so it runs in RunRepo (GlobalFailpointDiags), after every package's
// local pass.
var Failpoint = &Analyzer{
	Name: "failpoint",
	Doc:  "failpoint sites: literal names, registered exactly once from a package-level var, globally unique",
	Run:  runFailpoint,
}

// failpointNameFuncs are the internal/fail entry points whose first
// argument is a site name.
var failpointNameFuncs = map[string]bool{
	"Register": true, "Arm": true, "Lookup": true, "Disarm": true,
}

func runFailpoint(p *Pass) {
	if p.Pkg != nil && isRepoPkg(p.Pkg, "fail") {
		return // the registry implementation itself passes names through variables
	}
	p.Failpoints = make(map[string][]token.Pos)
	walk(p.prodFiles(), func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || !isRepoPkgPtr(fn.Pkg(), "fail") || !failpointNameFuncs[fn.Name()] {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			p.Reportf(call.Args[0].Pos(), "fail.%s site name must be a string literal", fn.Name())
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil || name == "" {
			p.Reportf(lit.Pos(), "fail.%s site name must be a non-empty string literal", fn.Name())
			return true
		}
		if fn.Name() != "Register" {
			return true
		}
		if prev := p.Failpoints[name]; len(prev) > 0 {
			p.Reportf(lit.Pos(), "failpoint %q registered more than once in this package (first at %s)",
				name, p.Fset.Position(prev[0]))
		}
		p.Failpoints[name] = append(p.Failpoints[name], lit.Pos())
		if !atPackageLevelVar(stack) {
			p.Reportf(call.Pos(), "fail.Register(%q) must initialize a package-level var so the site registers once at init", name)
		}
		return true
	})
}

// atPackageLevelVar reports whether the ancestor chain is
// file → var declaration → value spec, with no function in between.
func atPackageLevelVar(stack []ast.Node) bool {
	sawSpec := false
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ValueSpec:
			sawSpec = true
		case *ast.GenDecl:
			return sawSpec && n.Tok == token.VAR
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}

// GlobalFailpointDiags cross-checks the per-package registration sets
// collected by the failpoint analyzer: a site name registered by more
// than one package is a diagnostic at every site beyond the first.
func GlobalFailpointDiags(fset *token.FileSet, perPkg map[string]map[string][]token.Pos) []Diagnostic {
	first := make(map[string]string) // site name -> first package
	firstPos := make(map[string]token.Pos)
	var pkgs []string
	for pkg := range perPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		names := perPkg[pkg]
		var ordered []string
		for name := range names {
			ordered = append(ordered, name)
		}
		sort.Strings(ordered)
		for _, name := range ordered {
			if prev, ok := first[name]; ok && prev != pkg {
				diags = append(diags, Diagnostic{
					Pos:      names[name][0],
					Analyzer: Failpoint.Name,
					Message: "failpoint " + strconv.Quote(name) + " already registered by package " + prev +
						" (at " + fset.Position(firstPos[name]).String() + "); site names must be globally unique",
				})
				continue
			}
			if _, ok := first[name]; !ok {
				first[name] = pkg
				firstPos[name] = names[name][0]
			}
		}
	}
	sortDiags(fset, diags)
	return diags
}
