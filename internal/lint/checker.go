package lint

import (
	"fmt"
	"go/token"
	"io"
	"strings"
)

// RepoResult is the outcome of a whole-repo run: every diagnostic from
// every analyzer, including the cross-package failpoint uniqueness and
// testonly checks.
type RepoResult struct {
	Fset  *token.FileSet
	Diags []Diagnostic
}

// RunRepo loads the module rooted at dir with `go list`, typechecks
// every module package from source, and runs the full analyzer suite
// over the packages matched by patterns — the engine behind
// cmd/reprolint and the clean-tree cross-check test. The whole module
// loads whatever the patterns, because testonly must see every caller
// of a matched package's functions to report none falsely.
func RunRepo(dir string, patterns ...string) (*RepoResult, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	out, err := runGo(dir, append([]string{"list", "-f", "{{.ImportPath}}", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	matched := make(map[string]bool)
	for _, path := range strings.Fields(string(out)) {
		matched[path] = true
	}
	w, err := LoadRepo(dir, []string{"./..."}, false)
	if err != nil {
		return nil, err
	}
	res := &RepoResult{Fset: w.Fset}
	perPkg := make(map[string]map[string][]token.Pos)
	n := 0
	for _, pkg := range w.Packages {
		if !matched[pkg.Path] {
			continue
		}
		n++
		diags, failpoints := RunPackage(w.Fset, pkg.Files, pkg.Types, pkg.Info, Analyzers())
		res.Diags = append(res.Diags, diags...)
		if len(failpoints) > 0 {
			perPkg[pkg.Path] = failpoints
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("lint: no module packages match %q", patterns)
	}
	res.Diags = append(res.Diags, GlobalFailpointDiags(w.Fset, perPkg)...)
	res.Diags = append(res.Diags, TestOnlyDiags(w.Fset, w.Packages, func(pkg *Package) bool { return matched[pkg.Path] })...)
	sortDiags(w.Fset, res.Diags)
	return res, nil
}

// PrintDiags writes findings in the standard file:line:col vet format.
func PrintDiags(out io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(out, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}
