// Command reprolint statically enforces the repository's runtime
// contracts: zero-allocation hot paths (//repro:noalloc), deterministic
// packages (no time.Now / global rand / order-leaking map iteration),
// batch-amortized obs instrumentation, failpoint-site hygiene, and
// production callers for production code (testonly).
//
// Usage, from inside the module:
//
//	reprolint [packages]
//
// It loads the module in the current directory (packages default to
// ./...), runs every analyzer in internal/lint over each matched
// package plus the cross-package failpoint-uniqueness and testonly
// checks, and prints
// findings as file:line:col: message [analyzer]. It takes no flags.
// Exit codes follow vet: 0 clean, 1 load or typecheck error,
// 2 findings.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(patterns []string, out io.Writer) int {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(out, "reprolint: unknown argument %s (reprolint takes no flags)\nusage: reprolint [packages]\n", p)
			return 1
		}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(out, "reprolint:", err)
		return 1
	}
	res, err := lint.RunRepo(dir, patterns...)
	if err != nil {
		fmt.Fprintln(out, "reprolint:", err)
		return 1
	}
	if len(res.Diags) > 0 {
		lint.PrintDiags(out, res.Fset, res.Diags)
		return 2
	}
	return 0
}
