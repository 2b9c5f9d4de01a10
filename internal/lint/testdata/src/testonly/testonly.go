// Package testonly exercises the testonly check: a function or method
// needs a caller in a non-test file, outside its own body. The calls in
// testonly_test.go do not count.
package testonly

import "fmt"

func init() { fmt.Println(used()) }

// used has a production caller: init.
func used() int { return 0 }

func Exported() int { return 1 } // want `testonly\.Exported has no caller outside tests`

func unexported() int { return 2 } // want `testonly\.unexported has no caller outside tests`

func recursive(n int) int { // want `testonly\.recursive has no caller outside tests`
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

// stamp's String has no direct caller, but stamp implements the
// imported fmt.Stringer, so a dynamic call can reach it.
type stamp struct{}

func (stamp) String() string { return "stamp" }

// Label has no caller, and no interface of the module or its imports
// has a Label method.
func (stamp) Label() string { return "stamp" } // want `\(testonly\.stamp\)\.Label has no caller outside tests`

// Hatched names its caller outside production code.
//
//repro:testonly-ok another package's tests call it
func Hatched() {}

// unjustified's hatch still suppresses; the directive analyzer reports
// the missing justification instead.
//
//repro:testonly-ok
func unjustified() {}
