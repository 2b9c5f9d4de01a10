// Package seg is the persistent, columnar form of a click log: a
// segment store over the demand layer's 16-byte ClickRef — the §4
// big-log workload's on-disk representation. A file is a sequence of
// segments, each holding up to a configured number of refs decomposed
// into four per-column blocks (entity, cookie, day, source), followed
// by a directory of fixed-width per-segment footers (row counts, column
// block lengths, zone maps, a payload CRC) and a trailer locating the
// directory. Columns encode independently:
//
//   - entity, cookie, day: packed little-endian at the minimal byte
//     width that holds the column's largest value in the segment (1–4
//     bytes for entity, 1–8 for cookie, 1–2 for day; values cast
//     through their unsigned widths). The width is not stored — it is
//     colLen/rows, both already in the footer. Catalog indexes and
//     simulated cookie populations are dense near zero, so typical
//     segments spend two bytes per value; decoding is a fixed-stride
//     load with no per-value branching, which is what lets replay beat
//     the in-RAM pipeline rate on one core (a varint encoding saved a
//     few percent of file size but put a data-dependent branch per
//     value on the replay hot path).
//   - source: run-length encoded (source byte, varint run length).
//     Streams arrive in canonical source order — all search, then all
//     browse — so a segment is almost always one or two runs.
//
// Every segment footer carries zone maps — min/max entity, min/max
// day, and a presence bitmask over source values — so a replay with a
// predicate skips whole segments whose zone ranges cannot intersect it,
// without reading their payload. The reader replays segment-at-a-time
// through reused buffers (the godb heap-file / janus-datalog
// lazy-relation shape): the working set is one segment regardless of
// file size, which is what makes logs larger than memory reachable.
//
// The format is total over ClickRef values: any batch round-trips
// bit-exactly (negative entity/day included — they are cast through
// their unsigned width), and decoding validates section boundaries and
// CRCs so truncated or corrupt files are rejected with an error, never
// a panic or a silently short stream.
//
// Format v2 makes every segment self-framing: each payload is preceded
// by a 56-byte header — segment magic, the same 48-byte footer record
// the directory repeats, and a CRC of that record — so a file whose
// directory was lost to a crash mid-write can still be recovered by a
// forward scan (OpenSalvage) that accepts exactly the prefix of
// segments whose framing and payload CRCs validate. Strict readers
// verify the inline header against the directory entry before trusting
// a payload, closing the gap where header bytes would otherwise be
// outside any checksum.
package seg

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/demand"
	"repro/internal/fail"
)

// Format framing constants. The header magic doubles as the format
// sniff for clicklog's input auto-detection; bump the version byte on
// any incompatible layout change.
const (
	headerMagic  = "CSEGv2\r\n"
	trailerMagic = "CSEGend\n"
	headerLen    = len(headerMagic)
	trailerLen   = 8 + 4 + 4 + len(trailerMagic) // dirOff, segCount, dirCRC, magic

	// Per-segment inline header: magic, the dirEntry record, a CRC of
	// that record. dirEntry.offset points at the payload, i.e. just
	// past this header.
	segMagic     = "SEG!"
	segHeaderLen = len(segMagic) + dirEntrySize + 4
)

// Failpoints at the store's I/O boundaries: seg/write fires inside the
// writer's every write (short-write arming produces exactly the torn
// file salvage recovery defends against); seg/read fires before each
// segment payload read.
var (
	fpWrite = fail.Register("seg/write")
	fpRead  = fail.Register("seg/read")
)

// HeaderMagic exposes the 8-byte file magic for format sniffing.
func HeaderMagic() []byte { return []byte(headerMagic) }

// DefaultSegmentRows is the writer's default segment granularity:
// 64Ki refs is ~1 MiB decoded (and less encoded), small enough that a
// replaying reader's working set stays a couple of megabytes, large
// enough that zone maps and footers are a negligible fraction of the
// file.
const DefaultSegmentRows = 1 << 16

// dirEntry is one segment's footer in the file directory: where the
// payload lives, how its column blocks divide it, the zone maps a
// predicate consults before touching the payload, and the payload CRC.
type dirEntry struct {
	offset  uint64 // file offset of the segment payload
	rows    uint32
	colLen  [4]uint32 // entity, cookie, day, source block byte lengths
	entMin  int32     // zone map: entity range, inclusive
	entMax  int32
	dayMin  int16 // zone map: day range, inclusive
	dayMax  int16
	srcMask uint8 // zone map: bit (src & 7) set for every present source
	crc     uint32
}

// dirEntrySize is the fixed on-disk footprint of one directory entry.
const dirEntrySize = 48

// appendDirEntry serializes d little-endian into the 48-byte layout.
func appendDirEntry(b []byte, d dirEntry) []byte {
	b = binary.LittleEndian.AppendUint64(b, d.offset)
	b = binary.LittleEndian.AppendUint32(b, d.rows)
	for _, l := range d.colLen {
		b = binary.LittleEndian.AppendUint32(b, l)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(d.entMin))
	b = binary.LittleEndian.AppendUint32(b, uint32(d.entMax))
	b = binary.LittleEndian.AppendUint16(b, uint16(d.dayMin))
	b = binary.LittleEndian.AppendUint16(b, uint16(d.dayMax))
	b = append(b, d.srcMask, 0, 0, 0)
	return binary.LittleEndian.AppendUint32(b, d.crc)
}

// parseDirEntry is appendDirEntry's inverse over one 48-byte record.
func parseDirEntry(b []byte) dirEntry {
	var d dirEntry
	d.offset = binary.LittleEndian.Uint64(b[0:])
	d.rows = binary.LittleEndian.Uint32(b[8:])
	for i := range d.colLen {
		d.colLen[i] = binary.LittleEndian.Uint32(b[12+4*i:])
	}
	d.entMin = int32(binary.LittleEndian.Uint32(b[28:]))
	d.entMax = int32(binary.LittleEndian.Uint32(b[32:]))
	d.dayMin = int16(binary.LittleEndian.Uint16(b[36:]))
	d.dayMax = int16(binary.LittleEndian.Uint16(b[38:]))
	d.srcMask = b[40]
	d.crc = binary.LittleEndian.Uint32(b[44:])
	return d
}

// Writer appends ClickRefs and cuts them into columnar segments,
// holding the directory in memory until Close seals the file. Not safe
// for concurrent use. Errors are sticky: after a failed Add or Close
// every subsequent call returns the first error, so a caller may write
// a whole stream and check once.
type Writer struct {
	w       io.Writer
	segRows int
	rows    []demand.ClickRef
	dir     []dirEntry
	enc     []byte // reused segment encode buffer
	off     uint64 // bytes written so far (header included)
	started bool   // header written
	closed  bool
	err     error
	total   uint64
}

// byteWidth returns the minimal number of little-endian bytes holding
// v — the per-segment column width the packed encoding uses.
func byteWidth(v uint64) int {
	w := 1
	for v > 0xff {
		v >>= 8
		w++
	}
	return w
}

// appendLE appends the low w bytes of v little-endian.
func appendLE(b []byte, v uint64, w int) []byte {
	for i := 0; i < w; i++ {
		b = append(b, byte(v))
		v >>= 8
	}
	return b
}

// NewWriter returns a segment writer on w cutting segments of up to
// segmentRows refs (<= 0: DefaultSegmentRows). The caller should hand
// it a buffered or file writer; Close writes the directory and trailer
// but does not close the underlying writer.
func NewWriter(w io.Writer, segmentRows int) *Writer {
	if segmentRows <= 0 {
		segmentRows = DefaultSegmentRows
	}
	return &Writer{w: w, segRows: segmentRows, rows: make([]demand.ClickRef, 0, segmentRows)}
}

// write appends b to the underlying writer, tracking the file offset
// and making any error sticky. The seg/write failpoint wraps the write
// so tests can inject torn (short) writes and I/O errors.
func (w *Writer) write(b []byte) error {
	if w.err != nil {
		return w.err
	}
	n, err := fpWrite.WriteThrough(w.w, b)
	w.off += uint64(n)
	if err != nil {
		w.err = fmt.Errorf("seg: write: %w", err)
		return w.err
	}
	return nil
}

// batchSyncer is the durability hook an underlying writer may expose
// (fsx.AtomicFile does): the segment writer calls it after each flushed
// segment, so an fsync-always policy bounds loss to one segment without
// the writer knowing which policy is active.
type batchSyncer interface{ BatchSync() error }

// Add buffers one ref, flushing a full segment to the file.
func (w *Writer) Add(r demand.ClickRef) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = fmt.Errorf("seg: add after Close")
		return w.err
	}
	w.rows = append(w.rows, r)
	w.total++
	if len(w.rows) >= w.segRows {
		return w.flushSegment()
	}
	return nil
}

// flushSegment encodes the pending refs as one segment: the four
// column blocks back to back, with the footer (zone maps, lengths,
// CRC) recorded for the directory.
func (w *Writer) flushSegment() error {
	if len(w.rows) == 0 || w.err != nil {
		return w.err
	}
	if !w.started {
		// Header first: the segment's recorded offset must account for it.
		if err := w.write([]byte(headerMagic)); err != nil {
			return err
		}
		w.started = true
	}
	d := dirEntry{offset: w.off + uint64(segHeaderLen), rows: uint32(len(w.rows))}
	first := w.rows[0]
	d.entMin, d.entMax = first.Entity, first.Entity
	d.dayMin, d.dayMax = first.Day, first.Day
	var maxEnt, maxCookie, maxDay uint64
	for _, r := range w.rows {
		if r.Entity < d.entMin {
			d.entMin = r.Entity
		}
		if r.Entity > d.entMax {
			d.entMax = r.Entity
		}
		if r.Day < d.dayMin {
			d.dayMin = r.Day
		}
		if r.Day > d.dayMax {
			d.dayMax = r.Day
		}
		d.srcMask |= 1 << (r.Src & 7)
		if u := uint64(uint32(r.Entity)); u > maxEnt {
			maxEnt = u
		}
		if r.Cookie > maxCookie {
			maxCookie = r.Cookie
		}
		if u := uint64(uint16(r.Day)); u > maxDay {
			maxDay = u
		}
	}
	entW, cookieW, dayW := byteWidth(maxEnt), byteWidth(maxCookie), byteWidth(maxDay)

	e := w.enc[:0]
	for _, r := range w.rows {
		e = appendLE(e, uint64(uint32(r.Entity)), entW)
	}
	d.colLen[0] = uint32(len(e))
	mark := len(e)
	for _, r := range w.rows {
		e = appendLE(e, r.Cookie, cookieW)
	}
	d.colLen[1] = uint32(len(e) - mark)
	mark = len(e)
	for _, r := range w.rows {
		e = appendLE(e, uint64(uint16(r.Day)), dayW)
	}
	d.colLen[2] = uint32(len(e) - mark)
	mark = len(e)
	for i := 0; i < len(w.rows); {
		j := i + 1
		for j < len(w.rows) && w.rows[j].Src == w.rows[i].Src {
			j++
		}
		e = append(e, w.rows[i].Src)
		e = binary.AppendUvarint(e, uint64(j-i))
		i = j
	}
	d.colLen[3] = uint32(len(e) - mark)
	d.crc = crc32.ChecksumIEEE(e)
	w.enc = e

	// Inline self-framing header: magic, the footer record, its CRC —
	// what a directory-less salvage scan walks.
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = appendDirEntry(hdr, d)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr[len(segMagic):]))
	if err := w.write(hdr); err != nil {
		return err
	}
	if err := w.write(e); err != nil {
		return err
	}
	w.dir = append(w.dir, d)
	w.rows = w.rows[:0]
	if bs, ok := w.w.(batchSyncer); ok {
		if err := bs.BatchSync(); err != nil {
			w.err = fmt.Errorf("seg: sync: %w", err)
			return w.err
		}
	}
	return nil
}

// Close flushes the final partial segment and seals the file with the
// directory and trailer. The underlying writer is not closed. Close is
// idempotent only in error: a second call after success reports a
// sticky error.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = fmt.Errorf("seg: double Close")
		return w.err
	}
	w.closed = true
	if err := w.flushSegment(); err != nil {
		return err
	}
	if !w.started {
		// Empty log: still a valid file (header, no segments).
		if err := w.write([]byte(headerMagic)); err != nil {
			return err
		}
		w.started = true
	}
	dirOff := w.off
	dirBytes := make([]byte, 0, len(w.dir)*dirEntrySize)
	for _, d := range w.dir {
		dirBytes = appendDirEntry(dirBytes, d)
	}
	if err := w.write(dirBytes); err != nil {
		return err
	}
	trailer := make([]byte, 0, trailerLen)
	trailer = binary.LittleEndian.AppendUint64(trailer, dirOff)
	trailer = binary.LittleEndian.AppendUint32(trailer, uint32(len(w.dir)))
	trailer = binary.LittleEndian.AppendUint32(trailer, crc32.ChecksumIEEE(dirBytes))
	trailer = append(trailer, trailerMagic...)
	return w.write(trailer)
}
