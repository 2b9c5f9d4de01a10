package seg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/demand"
)

// Predicate is the pushdown filter a replay applies: a source, a day
// range, and an entity range, all inclusive. Segments whose zone maps
// cannot intersect the predicate are skipped without reading their
// payload; rows of scanned segments are filtered exactly, so the
// delivered stream is precisely the matching refs whether or not the
// log is clustered enough for zone maps to bite. Use All for the
// match-everything predicate — the Predicate zero value matches only
// source 0, day 0, entity 0.
type Predicate struct {
	// Src is the ClickRef.Src value to keep, or negative for any.
	Src int16
	// DayMin and DayMax bound ClickRef.Day, inclusive.
	DayMin, DayMax int16
	// EntityMin and EntityMax bound ClickRef.Entity, inclusive.
	EntityMin, EntityMax int32
}

// All returns the predicate matching every ref.
func All() Predicate {
	return Predicate{
		Src:    -1,
		DayMin: math.MinInt16, DayMax: math.MaxInt16,
		EntityMin: math.MinInt32, EntityMax: math.MaxInt32,
	}
}

// WithSrc narrows p to one source value.
func (p Predicate) WithSrc(src uint8) Predicate { p.Src = int16(src); return p }

// WithDays narrows p to days [lo, hi].
func (p Predicate) WithDays(lo, hi int16) Predicate { p.DayMin, p.DayMax = lo, hi; return p }

// WithEntities narrows p to entities [lo, hi].
func (p Predicate) WithEntities(lo, hi int32) Predicate { p.EntityMin, p.EntityMax = lo, hi; return p }

// isAll reports whether p cannot reject any ref, letting the replay
// skip the per-row filter pass entirely.
func (p Predicate) isAll() bool {
	return p.Src < 0 &&
		p.DayMin == math.MinInt16 && p.DayMax == math.MaxInt16 &&
		p.EntityMin == math.MinInt32 && p.EntityMax == math.MaxInt32
}

// Match reports whether one ref satisfies the predicate.
func (p Predicate) Match(r demand.ClickRef) bool {
	return (p.Src < 0 || uint8(p.Src) == r.Src) &&
		r.Day >= p.DayMin && r.Day <= p.DayMax &&
		r.Entity >= p.EntityMin && r.Entity <= p.EntityMax
}

// overlaps consults a segment's zone maps: false means no row in the
// segment can match p — a sound skip. The source mask folds source
// values into eight bits, so it can have false positives (a scanned
// segment with no matching rows) but never false negatives.
func (p Predicate) overlaps(d dirEntry) bool {
	if p.Src >= 0 && d.srcMask&(1<<(uint8(p.Src)&7)) == 0 {
		return false
	}
	if p.DayMax < d.dayMin || p.DayMin > d.dayMax {
		return false
	}
	if p.EntityMax < d.entMin || p.EntityMin > d.entMax {
		return false
	}
	return true
}

// ReplayStats reports what one Replay did — the observability contract
// that makes pushdown testable: a filtered replay over a clustered log
// must show Skipped > 0, and Matched is exactly the refs delivered.
type ReplayStats struct {
	// Segments is the total segment count of the file.
	Segments int `json:"segments"`
	// Skipped counts segments rejected by zone maps alone, payload
	// never read.
	Skipped int `json:"skipped"`
	// Quarantined counts corrupt segments skipped instead of aborting
	// the replay: structurally-bad directory entries dropped when the
	// file was opened in salvage mode, plus segments whose header or
	// payload failed validation during a salvage replay. Always zero in
	// strict mode, where corruption is an error.
	Quarantined int `json:"quarantined"`
	// Rows counts refs decoded from scanned segments.
	Rows uint64 `json:"rows"`
	// Matched counts refs that satisfied the predicate and were
	// delivered to fold.
	Matched uint64 `json:"matched"`
}

// Reader replays a segment file. It reads the directory eagerly (a few
// dozen bytes per segment) and payloads lazily, segment at a time,
// through reused buffers: replay RSS is bounded by the largest single
// segment, independent of file size. A Reader is single-goroutine;
// open one per concurrent replay (they can share the file).
type Reader struct {
	r        io.ReaderAt
	c        io.Closer // set by OpenFile
	dir      []dirEntry
	buf      []byte            // reused payload buffer
	refs     []demand.ClickRef // reused decode batch
	hdr      []byte            // reused header-verify scratch
	salvage  bool              // opened via OpenSalvage or NewReaderSalvage: Replay quarantines
	quarOpen int               // directory entries quarantined at open (salvage only)
}

// OpenFile opens path as a segment file, validating its framing and
// directory. The caller must Close the reader.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seg: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("seg: %w", err)
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.c = f
	return r, nil
}

// checkHeader validates the 8-byte file magic.
func checkHeader(ra io.ReaderAt) error {
	head := make([]byte, headerLen)
	if _, err := ra.ReadAt(head, 0); err != nil {
		return fmt.Errorf("seg: read header: %w", err)
	}
	if !bytes.Equal(head, []byte(headerMagic)) {
		return fmt.Errorf("seg: bad header magic")
	}
	return nil
}

// readTrailer parses and validates the fixed trailer, returning the
// directory location, segment count, and directory checksum.
func readTrailer(ra io.ReaderAt, size int64) (dirOff uint64, segCount, dirCRC uint32, err error) {
	tr := make([]byte, trailerLen)
	if _, err := ra.ReadAt(tr, size-int64(trailerLen)); err != nil {
		return 0, 0, 0, fmt.Errorf("seg: read trailer: %w", err)
	}
	if !bytes.Equal(tr[16:], []byte(trailerMagic)) {
		return 0, 0, 0, fmt.Errorf("seg: bad trailer magic")
	}
	dirOff = binary.LittleEndian.Uint64(tr[0:])
	segCount = binary.LittleEndian.Uint32(tr[8:])
	dirCRC = binary.LittleEndian.Uint32(tr[12:])
	dirLen := uint64(segCount) * dirEntrySize
	if dirOff < uint64(headerLen) || dirOff+dirLen != uint64(size)-uint64(trailerLen) {
		return 0, 0, 0, fmt.Errorf("seg: directory (%d segments at %d) does not fit the file", segCount, dirOff)
	}
	return dirOff, segCount, dirCRC, nil
}

// readDirectory loads the trailer-located footer directory, verifying
// the directory checksum but not per-entry structure: strict and
// salvage opens differ in what they do with a structurally-bad entry.
func readDirectory(ra io.ReaderAt, size int64) ([]dirEntry, uint64, error) {
	dirOff, segCount, dirCRC, err := readTrailer(ra, size)
	if err != nil {
		return nil, 0, err
	}
	dirBytes := make([]byte, uint64(segCount)*dirEntrySize)
	if _, err := ra.ReadAt(dirBytes, int64(dirOff)); err != nil {
		return nil, 0, fmt.Errorf("seg: read directory: %w", err)
	}
	if crc32.ChecksumIEEE(dirBytes) != dirCRC {
		return nil, 0, fmt.Errorf("seg: directory checksum mismatch")
	}
	entries := make([]dirEntry, segCount)
	for i := range entries {
		entries[i] = parseDirEntry(dirBytes[i*dirEntrySize:])
	}
	return entries, dirOff, nil
}

// NewReader opens a segment file over any io.ReaderAt of known size —
// the in-memory face OpenFile wraps.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	if size < int64(headerLen+trailerLen) {
		return nil, fmt.Errorf("seg: file too short (%d bytes)", size)
	}
	if err := checkHeader(ra); err != nil {
		return nil, err
	}
	entries, dirOff, err := readDirectory(ra, size)
	if err != nil {
		return nil, err
	}
	r := &Reader{r: ra, dir: entries}
	for i, d := range entries {
		// The packed columns are rows×width bytes for a width within each
		// column's legal range, and the payload (with its inline header)
		// must sit inside the file body — anything else is structurally
		// corrupt; reject it here rather than over-allocating in the
		// decoder.
		if !entryOK(d, dirOff) {
			return nil, fmt.Errorf("seg: segment %d structurally invalid", i)
		}
	}
	return r, nil
}

// payloadLen is a segment's payload byte length (inline header not
// included).
func payloadLen(d dirEntry) uint64 {
	return uint64(d.colLen[0]) + uint64(d.colLen[1]) + uint64(d.colLen[2]) + uint64(d.colLen[3])
}

// entryOK is the structural validity check for one directory entry
// against the file region [0, limit): the payload and its inline header
// fit, and every column length is rows×width for a legal width.
func entryOK(d dirEntry, limit uint64) bool {
	payload := payloadLen(d)
	return d.offset >= uint64(headerLen+segHeaderLen) &&
		payload <= limit && d.offset <= limit-payload &&
		d.rows > 0 &&
		widthOK(d.colLen[0], d.rows, 4) &&
		widthOK(d.colLen[1], d.rows, 8) &&
		widthOK(d.colLen[2], d.rows, 2) &&
		d.colLen[3] >= 2
}

// Close releases the underlying file when the reader came from
// OpenFile; it is a no-op for NewReader readers.
func (r *Reader) Close() error {
	if r.c != nil {
		return r.c.Close()
	}
	return nil
}

// Replay streams the file's refs matching p into fold in file order,
// one batch per scanned segment. Segments rejected by zone maps are
// skipped without touching their payload (counted in the returned
// stats). The batch slice is reused between calls — fold must not
// retain it. fold is never called with an empty batch. Replay feeds a
// single goroutine; pair it with ShardedAggregator.FeedRefs to fan the
// fold across shard workers.
//
// The open fixes the failure semantics. A strict reader (OpenFile,
// NewReader) aborts on the first corrupt segment. A salvage reader
// (OpenSalvage, NewReaderSalvage) quarantines corrupt segments —
// skipped and counted in Quarantined, never delivered — and completes
// the replay over everything that validates.
func (r *Reader) Replay(p Predicate, fold func(batch []demand.ClickRef)) (ReplayStats, error) {
	stats := ReplayStats{Segments: len(r.dir), Quarantined: r.quarOpen}
	for i, d := range r.dir {
		if !p.overlaps(d) {
			stats.Skipped++
			obsSegSkipped.Inc() //repro:obs-ok one increment per zone-map-skipped segment, not per ref
			continue
		}
		sp := spanSegDecode.Start() //repro:obs-ok one span per scanned segment
		t0 := time.Now()            //repro:nondeterm-ok per-segment decode-latency telemetry
		batch, err := r.readSegment(i, d)
		obsSegDecodeSec.ObserveSince(t0)
		sp.End()
		if err != nil {
			if r.salvage {
				stats.Quarantined++
				obsSegQuarantined.Inc() //repro:obs-ok one increment per quarantined segment
				continue
			}
			return stats, err
		}
		obsSegScanned.Inc()                                                                                    //repro:obs-ok one increment per scanned segment
		obsSegBytes.Add(uint64(d.colLen[0]) + uint64(d.colLen[1]) + uint64(d.colLen[2]) + uint64(d.colLen[3])) //repro:obs-ok one add per scanned segment
		stats.Rows += uint64(len(batch))
		obsSegRows.Add(uint64(len(batch))) //repro:obs-ok one add per scanned segment, not per row
		if !p.isAll() {
			kept := batch[:0]
			for _, ref := range batch {
				if p.Match(ref) {
					kept = append(kept, ref)
				}
			}
			batch = kept
		}
		stats.Matched += uint64(len(batch))
		obsSegMatched.Add(uint64(len(batch))) //repro:obs-ok one add per scanned segment, not per row
		if len(batch) > 0 {
			fold(batch)
		}
	}
	return stats, nil
}

// widthOK reports whether colLen is rows×w for some byte width w in
// [1, maxW] — the structural invariant of a packed column.
func widthOK(colLen, rows uint32, maxW uint32) bool {
	return colLen%rows == 0 && colLen/rows >= 1 && colLen/rows <= maxW
}

// loadLE assembles a little-endian value of width w at col[off] — the
// generic path for the odd widths the specialized decode loops skip.
func loadLE(col []byte, off, w int) uint64 {
	var v uint64
	for i := w - 1; i >= 0; i-- {
		v = v<<8 | uint64(col[off+i])
	}
	return v
}

// readSegment reads and decodes segment i into the reader's reused
// batch buffer, validating the inline header against the directory
// entry, the payload CRC, and the exact column framing.
func (r *Reader) readSegment(i int, d dirEntry) ([]demand.ClickRef, error) {
	if err := fpRead.Fail(); err != nil {
		return nil, fmt.Errorf("seg: segment %d: read payload: %w", i, err)
	}
	n := int(payloadLen(d))
	if cap(r.buf) < segHeaderLen+n {
		r.buf = make([]byte, segHeaderLen+n)
	}
	full := r.buf[:segHeaderLen+n]
	if _, err := r.r.ReadAt(full, int64(d.offset)-int64(segHeaderLen)); err != nil {
		return nil, fmt.Errorf("seg: segment %d: read payload: %w", i, err)
	}
	// The inline header must agree with the entry that located it: the
	// magic, the byte-identical footer record, and the record CRC. This
	// puts every header byte under a checksum and catches a directory
	// that points into the wrong place.
	hdr := full[:segHeaderLen]
	r.hdr = appendDirEntry(r.hdr[:0], d)
	if string(hdr[:len(segMagic)]) != segMagic ||
		!bytes.Equal(hdr[len(segMagic):len(segMagic)+dirEntrySize], r.hdr) ||
		binary.LittleEndian.Uint32(hdr[len(segMagic)+dirEntrySize:]) != crc32.ChecksumIEEE(r.hdr) {
		return nil, fmt.Errorf("seg: segment %d: inline header mismatch", i)
	}
	buf := full[segHeaderLen:]
	if crc32.ChecksumIEEE(buf) != d.crc {
		return nil, fmt.Errorf("seg: segment %d: payload checksum mismatch", i)
	}
	rows := int(d.rows)
	if cap(r.refs) < rows {
		r.refs = make([]demand.ClickRef, rows)
	}
	refs := r.refs[:rows]

	// The packed columns' widths are implied by their lengths (validated
	// rows×width in NewReader); each decode is a fixed-stride load with
	// no per-value branching — specialized loops for the pow2 widths the
	// writer emits at real catalog scales, loadLE for odd ones.
	col := buf[:d.colLen[0]]
	switch len(col) / rows {
	case 1:
		for j := range refs {
			refs[j].Entity = int32(uint32(col[j]))
		}
	case 2:
		for j := range refs {
			refs[j].Entity = int32(uint32(binary.LittleEndian.Uint16(col[2*j:])))
		}
	case 4:
		for j := range refs {
			refs[j].Entity = int32(binary.LittleEndian.Uint32(col[4*j:]))
		}
	default:
		w := len(col) / rows
		for j := range refs {
			refs[j].Entity = int32(uint32(loadLE(col, j*w, w)))
		}
	}
	col = buf[d.colLen[0] : uint64(d.colLen[0])+uint64(d.colLen[1])]
	switch len(col) / rows {
	case 1:
		for j := range refs {
			refs[j].Cookie = uint64(col[j])
		}
	case 2:
		for j := range refs {
			refs[j].Cookie = uint64(binary.LittleEndian.Uint16(col[2*j:]))
		}
	case 4:
		for j := range refs {
			refs[j].Cookie = uint64(binary.LittleEndian.Uint32(col[4*j:]))
		}
	case 8:
		for j := range refs {
			refs[j].Cookie = binary.LittleEndian.Uint64(col[8*j:])
		}
	default:
		w := len(col) / rows
		for j := range refs {
			refs[j].Cookie = loadLE(col, j*w, w)
		}
	}
	dayStart := uint64(d.colLen[0]) + uint64(d.colLen[1])
	col = buf[dayStart : dayStart+uint64(d.colLen[2])]
	if len(col)/rows == 1 {
		for j := range refs {
			refs[j].Day = int16(uint16(col[j]))
		}
	} else {
		for j := range refs {
			refs[j].Day = int16(binary.LittleEndian.Uint16(col[2*j:]))
		}
	}
	// The source column is run-length pairs; it must cover exactly
	// `rows` values consuming exactly its recorded length — any slack or
	// overrun is corruption.
	col = buf[dayStart+uint64(d.colLen[2]):]
	for j := 0; j < rows; {
		if len(col) == 0 {
			return nil, fmt.Errorf("seg: segment %d: source column truncated", i)
		}
		src := col[0]
		run, k := binary.Uvarint(col[1:])
		if k <= 0 || run == 0 || run > uint64(rows-j) {
			return nil, fmt.Errorf("seg: segment %d: corrupt source run", i)
		}
		col = col[1+k:]
		for end := j + int(run); j < end; j++ {
			refs[j].Src = src
		}
	}
	if len(col) != 0 {
		return nil, fmt.Errorf("seg: segment %d: source column has trailing bytes", i)
	}
	return refs, nil
}
