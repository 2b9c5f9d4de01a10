package lint

import (
	"fmt"
	"go/token"
	"io"
)

// RepoResult is the outcome of a whole-repo run: every diagnostic from
// every analyzer, including the cross-package failpoint uniqueness
// check.
type RepoResult struct {
	Fset  *token.FileSet
	Diags []Diagnostic
}

// RunRepo loads the module rooted at dir with `go list`, typechecks the
// packages matched by patterns from source, and runs the full analyzer
// suite over each — the engine behind cmd/reprolint and the clean-tree
// cross-check test.
func RunRepo(dir string, patterns ...string) (*RepoResult, error) {
	w, err := LoadRepo(dir, patterns, false)
	if err != nil {
		return nil, err
	}
	if len(w.Packages) == 0 {
		return nil, fmt.Errorf("lint: no module packages match %q", patterns)
	}
	res := &RepoResult{Fset: w.Fset}
	perPkg := make(map[string]map[string][]token.Pos)
	for _, pkg := range w.Packages {
		diags, failpoints := RunPackage(w.Fset, pkg.Files, pkg.Types, pkg.Info, Analyzers())
		res.Diags = append(res.Diags, diags...)
		if len(failpoints) > 0 {
			perPkg[pkg.Path] = failpoints
		}
	}
	res.Diags = append(res.Diags, GlobalFailpointDiags(w.Fset, perPkg)...)
	sortDiags(w.Fset, res.Diags)
	return res, nil
}

// PrintDiags writes findings in the standard file:line:col vet format.
func PrintDiags(out io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(out, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}
