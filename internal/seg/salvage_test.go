package seg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/demand"
	"repro/internal/fail"
	"repro/internal/fsx"
)

// salvageAll replays a salvage reader over everything, returning the
// delivered rows and stats.
func salvageAll(t *testing.T, r *Reader) ([]demand.ClickRef, ReplayStats) {
	t.Helper()
	var out []demand.ClickRef
	stats, err := r.Replay(All(), func(b []demand.ClickRef) {
		out = append(out, b...)
	})
	if err != nil {
		t.Fatalf("salvage replay errored: %v", err)
	}
	return out, stats
}

// TestSalvageCleanFile: on an intact file, salvage is strict replay —
// same rows, nothing quarantined.
func TestSalvageCleanFile(t *testing.T) {
	refs := randomRefs(19, 500)
	file := writeRefs(t, refs, 128)
	want, _ := replayAll(t, file, All())
	r, err := NewReaderSalvage(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	got, stats := salvageAll(t, r)
	if stats.Quarantined != 0 || stats.Segments != 4 {
		t.Fatalf("clean-file salvage stats = %+v", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("salvage replayed %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestSalvageTruncationBoundaries cuts the file at EVERY length — so
// the cut lands mid-segment-header, mid-payload, mid-directory, and
// mid-trailer many times over — and asserts salvage recovers exactly
// the segments wholly inside the prefix, byte-identical to a clean
// replay of those segments, never a row more.
func TestSalvageTruncationBoundaries(t *testing.T) {
	refs := randomRefs(17, 1000)
	file := writeRefs(t, refs, 128) // 8 segments (7×128 + 104)
	want, _ := replayAll(t, file, All())

	sr, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	// Per-segment payload end offsets and cumulative row counts, from
	// the intact directory: the oracle for what each prefix holds.
	var ends []uint64
	var rowsCum []int
	cum := 0
	for _, d := range sr.dir {
		cum += int(d.rows)
		ends = append(ends, d.offset+payloadLen(d))
		rowsCum = append(rowsCum, cum)
	}

	for n := 0; n <= len(file); n++ {
		r, err := NewReaderSalvage(bytes.NewReader(file[:n]), int64(n))
		if n < headerLen {
			if err == nil {
				t.Fatalf("n=%d: salvage accepted a file shorter than the magic", n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("n=%d: salvage open failed: %v", n, err)
		}
		wantSegs, wantRows := 0, 0
		for i, e := range ends {
			if e <= uint64(n) {
				wantSegs, wantRows = i+1, rowsCum[i]
			}
		}
		if r.Segments() != wantSegs {
			t.Fatalf("n=%d: recovered %d segments, want %d", n, r.Segments(), wantSegs)
		}
		got, stats := salvageAll(t, r)
		if stats.Quarantined != 0 {
			t.Fatalf("n=%d: quarantined %d segments of an intact prefix", n, stats.Quarantined)
		}
		if len(got) != wantRows {
			t.Fatalf("n=%d: replayed %d rows, want %d", n, len(got), wantRows)
		}
		for i := 0; i < wantRows; i++ {
			if got[i] != want[i] {
				t.Fatalf("n=%d: salvaged row %d differs from clean replay", n, i)
			}
		}
	}
}

// TestSalvageQuarantinesFlippedBytes flips every byte in turn and
// asserts salvage (a) never panics or errors, (b) delivers only
// batches that are byte-identical to original segments, in order — a
// corrupt segment is quarantined, never partially delivered.
func TestSalvageQuarantinesFlippedBytes(t *testing.T) {
	refs := randomRefs(23, 640)
	file := writeRefs(t, refs, 128) // 5 segments
	// Original per-segment row slices.
	var segs [][]demand.ClickRef
	for i := 0; i < len(refs); i += 128 {
		end := i + 128
		if end > len(refs) {
			end = len(refs)
		}
		segs = append(segs, refs[i:end])
	}
	for i := range file {
		mut := append([]byte(nil), file...)
		mut[i] ^= 0x5a
		r, err := NewReaderSalvage(bytes.NewReader(mut), int64(len(mut)))
		if i < headerLen {
			if err == nil {
				t.Fatalf("flip at %d: corrupted magic accepted", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip at %d: salvage open failed: %v", i, err)
		}
		next := 0 // original segment cursor: batches must match in order
		delivered := 0
		if _, err := r.Replay(All(), func(b []demand.ClickRef) {
			for ; next < len(segs); next++ {
				orig := segs[next]
				if len(b) == len(orig) {
					same := true
					for j := range b {
						if b[j] != orig[j] {
							same = false
							break
						}
					}
					if same {
						next++
						delivered++
						return
					}
				}
			}
			t.Fatalf("flip at %d: delivered a batch matching no original segment", i)
		}); err != nil {
			t.Fatalf("flip at %d: salvage replay errored: %v", i, err)
		}
	}
}

// TestReplayWithSalvageOnStrictReader: the open fixes the semantics
// over the same bytes — a strict reader's Replay fails on a flipped
// payload byte, a salvage reader's quarantines exactly that segment
// and delivers the rest.
func TestReplayWithSalvageOnStrictReader(t *testing.T) {
	refs := randomRefs(29, 512)
	file := writeRefs(t, refs, 128) // 4 segments
	// Flip one byte inside segment 2's payload: past the file header,
	// three segment frames, and into the third payload.
	sr, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), file...)
	mut[sr.dir[2].offset+3] ^= 0xff
	r, err := NewReader(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(All(), func([]demand.ClickRef) {}); err == nil {
		t.Fatal("strict replay of a flipped payload succeeded")
	}
	sal, err := NewReaderSalvage(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	var got []demand.ClickRef
	stats, err := sal.Replay(All(), func(b []demand.ClickRef) {
		got = append(got, b...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 1 || len(got) != 384 {
		t.Fatalf("salvage of one bad segment: quarantined=%d rows=%d, want 1/384", stats.Quarantined, len(got))
	}
}

// TestSalvageQuarantinesBadDirEntry: a structurally-invalid directory
// entry under a VALID directory checksum (hostile or bit-rotted
// footer) fails a strict open but is quarantined individually by a
// salvage open, which keeps every other segment.
func TestSalvageQuarantinesBadDirEntry(t *testing.T) {
	refs := randomRefs(43, 512)
	file := writeRefs(t, refs, 128) // 4 segments
	mut := append([]byte(nil), file...)
	dirOff, segCount, _, err := readTrailer(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	// Zero entry 1's row count, then re-seal the directory checksum so
	// only per-entry validation can catch it.
	binary.LittleEndian.PutUint32(mut[dirOff+dirEntrySize+8:], 0)
	dirLen := uint64(segCount) * dirEntrySize
	binary.LittleEndian.PutUint32(mut[len(mut)-trailerLen+12:],
		crc32.ChecksumIEEE(mut[dirOff:dirOff+dirLen]))

	if _, err := NewReader(bytes.NewReader(mut), int64(len(mut))); err == nil {
		t.Fatal("strict open accepted a structurally-invalid directory entry")
	}
	r, err := NewReaderSalvage(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments() != 3 {
		t.Fatalf("salvage kept %d segments, want 3", r.Segments())
	}
	got, stats := salvageAll(t, r)
	if stats.Quarantined != 1 || len(got) != 384 {
		t.Fatalf("bad-entry salvage: quarantined=%d rows=%d, want 1/384", stats.Quarantined, len(got))
	}
}

// TestSalvageHeaderOnlyFile: a file torn right after the magic is an
// empty recoverable log.
func TestSalvageHeaderOnlyFile(t *testing.T) {
	r, err := NewReaderSalvage(bytes.NewReader([]byte(headerMagic)), int64(headerLen))
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments() != 0 {
		t.Fatalf("header-only file has %d segments", r.Segments())
	}
	if _, stats := salvageAll(t, r); stats != (ReplayStats{}) {
		t.Fatalf("header-only stats = %+v", stats)
	}
}

// TestOpenSalvageFile: the file-path face, against a torn file on disk.
func TestOpenSalvageFile(t *testing.T) {
	refs := randomRefs(31, 300)
	file := writeRefs(t, refs, 128)
	want, _ := replayAll(t, file, All())
	path := filepath.Join(t.TempDir(), "torn.seg")
	// Tear the file mid-way through the last segment's payload.
	sr, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	cut := int(sr.dir[2].offset + payloadLen(sr.dir[2])/2)
	if err := os.WriteFile(path, file[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("strict OpenFile accepted a torn file")
	}
	r, err := OpenSalvage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, stats := salvageAll(t, r)
	if stats.Segments != 2 || len(got) != 256 {
		t.Fatalf("torn-file salvage: %d segments, %d rows (want 2/256)", stats.Segments, len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs from clean replay", i)
		}
	}
	if _, err := OpenSalvage(filepath.Join(t.TempDir(), "absent.seg")); err == nil {
		t.Error("OpenSalvage of a missing file succeeded")
	}
}

// TestReadFailpoint: an injected read error aborts a strict replay and
// is quarantined by a salvage reader's replay of the same bytes.
func TestReadFailpoint(t *testing.T) {
	refs := randomRefs(37, 512)
	file := writeRefs(t, refs, 128) // 4 segments
	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	fail.Arm("seg/read", fail.Action{Kind: fail.Error, Times: 1})
	defer fail.Disarm("seg/read")
	if _, err := r.Replay(All(), func([]demand.ClickRef) {}); !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("strict replay under injected read fault = %v", err)
	}

	sal, err := NewReaderSalvage(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	fail.Arm("seg/read", fail.Action{Kind: fail.Error, Times: 1})
	var rows int
	stats, err := sal.Replay(All(), func(b []demand.ClickRef) {
		rows += len(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 1 || rows != 384 {
		t.Fatalf("salvage under one injected read fault: quarantined=%d rows=%d, want 1/384", stats.Quarantined, rows)
	}
}

// TestCreateFileCrashSafety: the atomic file writer publishes on a
// clean Close and leaves NOTHING under the final name when a write
// fault (torn write), a sync fault, or a rename fault strikes — the
// injected versions of crash-mid-write.
func TestCreateFileCrashSafety(t *testing.T) {
	refs := randomRefs(41, 300)
	dir := t.TempDir()

	writeAll := func(path string, policy fsx.SyncPolicy) error {
		w, err := CreateFile(path, 128, policy)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Abort()
		for _, r := range refs {
			if err := w.Add(r); err != nil {
				return err
			}
		}
		return w.Close()
	}

	// Clean path, strictest policy: per-segment fsync then publish.
	good := filepath.Join(dir, "good.seg")
	if err := writeAll(good, fsx.SyncAlways); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 300 {
		t.Fatalf("published file has %d rows", r.Rows())
	}
	r.Close()

	// Injected faults: each must error out of Close/Add and leave the
	// directory without the destination or any temp file.
	cases := []struct {
		name string
		site string
		a    fail.Action
	}{
		{"torn write", "seg/write", fail.Action{Kind: fail.ShortWrite, Bytes: 11, Skip: 2, Times: 1}},
		{"write error", "seg/write", fail.Action{Kind: fail.Error, Skip: 4, Times: 1}},
		{"sync error", "fsx/sync", fail.Action{Kind: fail.Error, Times: 1}},
		{"rename error", "fsx/rename", fail.Action{Kind: fail.Error, Times: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fail.Arm(c.site, c.a)
			defer fail.Disarm(c.site)
			path := filepath.Join(dir, "doomed.seg")
			if err := writeAll(path, fsx.SyncClose); !errors.Is(err, fail.ErrInjected) {
				t.Fatalf("write under %s = %v, want injected error", c.name, err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s left a file under the final name", c.name)
			}
			if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s left a temp file", c.name)
			}
		})
	}
}
