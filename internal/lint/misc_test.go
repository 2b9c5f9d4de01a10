package lint

import (
	"go/types"
	"testing"
)

func TestImporterUnsafe(t *testing.T) {
	wi := &worldImporter{w: &World{}}
	if p, err := wi.Import("unsafe"); err != nil || p != types.Unsafe {
		t.Errorf("worldImporter.Import(unsafe) = %v, %v", p, err)
	}
}

func TestRunGoError(t *testing.T) {
	if _, err := runGo(".", "not-a-go-subcommand"); err == nil {
		t.Error("runGo must surface go tool failures")
	}
}

func TestLookupExportMissing(t *testing.T) {
	w := &World{exports: map[string]string{}}
	if _, err := w.lookupExport("no/such/pkg"); err == nil {
		t.Error("lookupExport must fail for unknown packages")
	}
}

func TestJoinDir(t *testing.T) {
	if got := joinDir("/d", "/abs/f.go"); got != "/abs/f.go" {
		t.Errorf("joinDir absolute = %q", got)
	}
	if got := joinDir("/d", "f.go"); got != "/d/f.go" {
		t.Errorf("joinDir relative = %q", got)
	}
}
