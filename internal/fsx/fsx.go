// Package fsx provides crash-safe file creation: data is written to a
// temp file next to the destination and renamed into place only on
// Commit, after an fsync chosen by policy. A crash (or injected fault)
// at any point before the rename leaves the destination untouched —
// either the old content or nothing, never a torn file under the final
// name. The directory is fsynced after the rename so the new name
// itself survives a crash.
//
// Failpoints: fsx/sync fires before every fsync, fsx/rename before the
// rename — arming either lets tests prove a writer's cleanup path
// removes the temp file and never publishes a partial result.
package fsx

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fail"
)

var (
	fpSync   = fail.Register("fsx/sync")
	fpRename = fail.Register("fsx/rename")
)

// SyncPolicy selects how aggressively an AtomicFile fsyncs.
type SyncPolicy uint8

const (
	// SyncClose fsyncs once, at Commit, before the rename — the
	// default: the published file is durable, at one fsync per file.
	SyncClose SyncPolicy = iota
	// SyncAlways additionally fsyncs at every BatchSync call (writers
	// invoke it at their natural batch boundaries, e.g. per segment),
	// bounding data loss to one batch at a durability cost per batch.
	SyncAlways
	// SyncOff never fsyncs. Rename atomicity still holds; durability
	// after power loss does not. For tests and throwaway output.
	SyncOff
)

// ParseSyncPolicy maps the CLI vocabulary always|close|off.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "close":
		return SyncClose, nil
	case "off":
		return SyncOff, nil
	}
	return SyncClose, fmt.Errorf("fsx: unknown sync policy %q (always, close, off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "close"
	}
}

// AtomicFile is a file being written under a temp name. Write to it
// (it is an io.Writer), then either Commit — fsync per policy, close,
// rename to the final path, fsync the directory — or Abort, which
// removes the temp file. One of the two must be called; Abort after
// Commit is a no-op, so "defer af.Abort()" is the idiomatic cleanup.
type AtomicFile struct {
	f      *os.File
	path   string // final destination
	tmp    string
	policy SyncPolicy
	done   bool
}

// CreateAtomic opens path+".tmp" for writing, truncating any stale
// temp file a previous crash left behind.
func CreateAtomic(path string, policy SyncPolicy) (*AtomicFile, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	return &AtomicFile{f: f, path: path, tmp: tmp, policy: policy}, nil
}

func (a *AtomicFile) Write(b []byte) (int, error) { return a.f.Write(b) }

// BatchSync fsyncs the temp file under SyncAlways and is a no-op under
// any other policy. Writers call it at batch boundaries (per segment,
// per N records) so durability granularity follows the policy without
// the writer knowing which one is active.
func (a *AtomicFile) BatchSync() error {
	if a.policy != SyncAlways {
		return nil
	}
	return a.sync()
}

func (a *AtomicFile) sync() error {
	if err := fpSync.Fail(); err != nil {
		return err
	}
	return a.f.Sync()
}

// Commit publishes the file: fsync (per policy), close, rename over
// the destination, fsync the directory. On any error the temp file is
// removed and the destination is left as it was.
func (a *AtomicFile) Commit() error {
	if a.done {
		return errors.New("fsx: Commit on a finished AtomicFile")
	}
	a.done = true
	if a.policy != SyncOff {
		if err := a.sync(); err != nil {
			a.f.Close()
			os.Remove(a.tmp)
			return err
		}
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.tmp)
		return err
	}
	if err := fpRename.Fail(); err != nil {
		os.Remove(a.tmp)
		return err
	}
	if err := os.Rename(a.tmp, a.path); err != nil {
		os.Remove(a.tmp)
		return err
	}
	if a.policy != SyncOff {
		return SyncDir(filepath.Dir(a.path))
	}
	return nil
}

// Abort discards the temp file. After Commit (or a failed Commit, which
// already cleaned up) it is a no-op.
func (a *AtomicFile) Abort() error {
	if a.done {
		return nil
	}
	a.done = true
	err := a.f.Close()
	if rmErr := os.Remove(a.tmp); err == nil {
		err = rmErr
	}
	return err
}

// SyncDir fsyncs a directory so a just-created or just-renamed name in
// it survives a crash.
func SyncDir(dir string) error {
	if err := fpSync.Fail(); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
