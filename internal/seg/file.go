package seg

import (
	"fmt"

	"repro/internal/fsx"
)

// FileWriter is a Writer bound to a crash-safe destination file: data
// goes to a temp file that Close fsyncs (per policy) and renames into
// place, so a crash — or an injected fault — at any point leaves
// either the previous file or nothing under the final name, never a
// torn segment file. The writer's per-segment flush drives the fsync
// policy through fsx.AtomicFile.BatchSync: under SyncAlways each
// sealed segment is durable before the next begins.
type FileWriter struct {
	*Writer
	af *fsx.AtomicFile
}

// CreateFile opens a crash-safe segment writer on path (segmentRows
// <= 0: DefaultSegmentRows). Close publishes the file; Abort (or a
// failed Close, which aborts internally) discards the temp file and
// leaves path untouched.
//
//repro:testonly-ok bench/clicklog.go writes its segment file with it; ROADMAP item 6 retires that caller
func CreateFile(path string, segmentRows int, policy fsx.SyncPolicy) (*FileWriter, error) {
	af, err := fsx.CreateAtomic(path, policy)
	if err != nil {
		return nil, fmt.Errorf("seg: %w", err)
	}
	return &FileWriter{Writer: NewWriter(af, segmentRows), af: af}, nil
}

// Close seals the segment stream (directory + trailer) and commits the
// atomic file. On any error the temp file is removed and the
// destination path is left as it was.
func (f *FileWriter) Close() error {
	if err := f.Writer.Close(); err != nil {
		f.af.Abort()
		return err
	}
	return f.af.Commit()
}

// Abort discards the temp file without publishing. Safe after Close
// (no-op).
//
//repro:testonly-ok bench/clicklog.go; ROADMAP item 6 retires that caller
func (f *FileWriter) Abort() error {
	return f.af.Abort()
}
