package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly is the whole-module check that production code has
// production callers: every function or method declared in a non-test
// file must be referenced from a non-test file of the module, outside
// its own body. Code that only tests, benchmarks or ablations call
// belongs in a _test.go file or nowhere. Like the global half of the
// failpoint check it needs every package at once, so it has no
// per-package Run: RunRepo calls TestOnlyDiags.
//
// Exempt are main and init, and a method whose receiver type implements
// an interface that has the method (sort.Interface's Less, io.Writer's
// Write), since a dynamic call reaches it. The interfaces are those the
// module declares or uses and those any package it imports declares.
// The hatch //repro:testonly-ok <why> names the caller the module's
// production code does not hold: a file of the separate bench module,
// another package's test, or a test API.
var TestOnly = &Analyzer{
	Name:  "testonly",
	Doc:   "functions and methods in non-test files must have a non-test caller",
	Hatch: dirTestonlyOK,
}

// TestOnlyDiags runs the testonly check. References are gathered from
// the non-test files of every package in pkgs; findings are reported
// for the declarations of the packages report accepts.
func TestOnlyDiags(fset *token.FileSet, pkgs []*Package, report func(*Package) bool) []Diagnostic {
	type decl struct {
		fd  *ast.FuncDecl
		pkg *Package
	}
	decls := make(map[types.Object]decl)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if isTestFile(fset, f) {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls[pkg.Info.Defs[fd.Name]] = decl{fd, pkg}
				}
			}
		}
	}
	used := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			d, ok := decls[fn.Origin()]
			if !ok || (d.fd.Pos() <= id.Pos() && id.Pos() < d.fd.End()) || strings.HasSuffix(fset.File(id.Pos()).Name(), "_test.go") {
				continue
			}
			used[fn.Origin()] = true
		}
	}
	ifaces := interfacesByMethod(pkgs)
	dirs := make(map[*Package]*Directives)
	var diags []Diagnostic
	for obj, d := range decls {
		fn, _ := obj.(*types.Func)
		if fn == nil || used[obj] || !report(d.pkg) || isEntryPoint(d.pkg, d.fd) || satisfiesInterface(fn, ifaces) {
			continue
		}
		if dirs[d.pkg] == nil {
			dirs[d.pkg] = ParseDirectives(fset, d.pkg.Files)
		}
		if dirs[d.pkg].Suppressed(TestOnly.Hatch, fset.Position(d.fd.Name.Pos())) {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      d.fd.Name.Pos(),
			Analyzer: TestOnly.Name,
			Message:  fn.FullName() + " has no caller outside tests: move it into a _test.go file, delete it, or name its caller with //repro:testonly-ok <why>",
		})
	}
	sortDiags(fset, diags)
	return diags
}

// isEntryPoint reports whether fd is a function the runtime calls: init
// anywhere, main in package main.
func isEntryPoint(pkg *Package, fd *ast.FuncDecl) bool {
	return fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && pkg.Types.Name() == "main")
}

// interfacesByMethod indexes by method name every interface the
// universe, pkgs or any package they import declares at package level,
// and every interface type pkgs use.
func interfacesByMethod(pkgs []*Package) map[string][]*types.Interface {
	out := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || hasTypeParams(t) {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
		}
	}
	visited := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
	}
	return out
}

// satisfiesInterface reports whether fn is a method whose receiver type,
// or a pointer to it, implements an indexed interface with fn's name.
func satisfiesInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if hasTypeParams(t) {
		return false // Implements is not defined over uninstantiated types
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// hasTypeParams reports whether t is a generic named type, a type
// parameter or a constraint, none of which Implements can judge.
func hasTypeParams(t types.Type) bool {
	switch t := t.(type) {
	case *types.Named:
		if t.TypeParams().Len() > 0 {
			return true
		}
	case *types.TypeParam:
		return true
	}
	it, ok := t.Underlying().(*types.Interface)
	return ok && !it.IsMethodSet()
}
