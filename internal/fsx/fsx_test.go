package fsx

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fail"
)

func TestCommitPublishes(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncClose, SyncAlways, SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.bin")
			af, err := CreateAtomic(path, policy)
			if err != nil {
				t.Fatal(err)
			}
			if af.Name() != path {
				t.Errorf("Name() = %q, want %q", af.Name(), path)
			}
			if _, err := af.Write([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			if err := af.BatchSync(); err != nil {
				t.Fatal(err)
			}
			if _, err := af.Write([]byte("world")); err != nil {
				t.Fatal(err)
			}
			// Before Commit the destination must not exist.
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("destination exists before Commit: %v", err)
			}
			if err := af.Commit(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil || string(got) != "hello world" {
				t.Fatalf("published file = %q, %v", got, err)
			}
			if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Error("temp file survived Commit")
			}
			// Abort after Commit is a no-op and must not remove the result.
			if err := af.Abort(); err != nil {
				t.Errorf("Abort after Commit = %v", err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("Abort after Commit removed the published file: %v", err)
			}
		})
	}
}

func TestCommitReplacesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	af, err := CreateAtomic(path, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	af.Write([]byte("new"))
	if err := af.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new" {
		t.Fatalf("after replace, file = %q", got)
	}
}

func TestAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	af, err := CreateAtomic(path, SyncClose)
	if err != nil {
		t.Fatal(err)
	}
	af.Write([]byte("partial"))
	if err := af.Abort(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("Abort left %d entries in the directory", len(ents))
	}
	// Second Abort is a no-op.
	if err := af.Abort(); err != nil {
		t.Errorf("second Abort = %v", err)
	}
}

func TestDoubleCommitErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	af, err := CreateAtomic(path, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	if err := af.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := af.Commit(); err == nil {
		t.Error("second Commit succeeded")
	}
}

// TestInjectedSyncFailure proves the crash-safety contract under an
// fsync fault: Commit fails, the destination never appears, and the
// temp file is cleaned up.
func TestInjectedSyncFailure(t *testing.T) {
	fail.Arm("fsx/sync", fail.Action{Kind: fail.Error, Times: 1})
	defer fail.Disarm("fsx/sync")
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	af, err := CreateAtomic(path, SyncClose)
	if err != nil {
		t.Fatal(err)
	}
	af.Write([]byte("doomed"))
	if err := af.Commit(); !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("Commit under injected fsync fault = %v", err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("failed Commit left %d entries behind", len(ents))
	}
}

func TestInjectedRenameFailure(t *testing.T) {
	fail.Arm("fsx/rename", fail.Action{Kind: fail.Error, Times: 1})
	defer fail.Disarm("fsx/rename")
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	af, err := CreateAtomic(path, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	af.Write([]byte("doomed"))
	if err := af.Commit(); !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("Commit under injected rename fault = %v", err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("failed Commit left %d entries behind", len(ents))
	}
}

// TestBatchSyncPolicyGating: BatchSync only reaches the fsync (and so
// the failpoint) under SyncAlways.
func TestBatchSyncPolicyGating(t *testing.T) {
	fail.Arm("fsx/sync", fail.Action{Kind: fail.Error})
	defer fail.Disarm("fsx/sync")
	path := filepath.Join(t.TempDir(), "out.bin")

	af, err := CreateAtomic(path, SyncClose)
	if err != nil {
		t.Fatal(err)
	}
	defer af.Abort()
	if err := af.BatchSync(); err != nil {
		t.Errorf("BatchSync under SyncClose hit the fsync path: %v", err)
	}

	af2, err := CreateAtomic(path+"2", SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer af2.Abort()
	if err := af2.BatchSync(); !errors.Is(err, fail.ErrInjected) {
		t.Errorf("BatchSync under SyncAlways = %v, want injected error", err)
	}
}

func TestCreateAtomicBadDir(t *testing.T) {
	if _, err := CreateAtomic(filepath.Join(t.TempDir(), "no-such-dir", "x"), SyncOff); err == nil {
		t.Error("CreateAtomic in a missing directory succeeded")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{"always": SyncAlways, "close": SyncClose, "off": SyncOff}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
		if got.String() != in {
			t.Errorf("SyncPolicy(%v).String() = %q, want %q", got, got.String(), in)
		}
	}
	if _, err := ParseSyncPolicy("fsync"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Errorf("SyncDir on a real directory = %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("SyncDir on a missing directory succeeded")
	}
}

// Name returns the final destination path.
func (a *AtomicFile) Name() string { return a.path }
