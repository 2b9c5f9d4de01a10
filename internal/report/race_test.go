//go:build race

package report

func init() { raceEnabled = true }
