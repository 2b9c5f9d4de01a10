package warc

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime"
	"testing"
)

// hugeContentLength is TestHugeContentLengthErrors's record: a declared
// length no input could hold.
const hugeContentLength = "WARC/1.0\r\nContent-Length: 9000000000000000000\r\n\r\nx"

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readRecords reads records from data until the first error or the end,
// returning those read and the error (nil at a clean end).
func readRecords(data []byte) ([]*Record, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var recs []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// writerOwned are the headers Writer sets itself, whatever the record
// holds.
var writerOwned = map[string]bool{"WARC-Record-ID": true, "WARC-Date": true, "Content-Length": true}

// sameRecord reports whether got, read back from Writer's output, is
// want: equal content, and equal values for every header Writer does
// not own. An absent header equals an empty one, since Writer always
// writes WARC-Type and drops an empty WARC-Target-URI or Content-Type.
func sameRecord(got, want *Record) bool {
	if !bytes.Equal(got.Content, want.Content) {
		return false
	}
	for _, hs := range []map[string]string{got.Headers, want.Headers} {
		for k := range hs {
			if !writerOwned[k] && got.Headers[k] != want.Headers[k] {
				return false
			}
		}
	}
	return true
}

// FuzzWARCReader feeds arbitrary bytes, plain or gzip, to Reader. It
// must not panic; a read may allocate at most a fixed 1 MiB (the 64 KiB
// read buffer, a gzip decompressor) plus a constant per input byte:
// 64 bytes for plain input, 8 KiB for gzip, whose members may inflate
// at deflate's limit of about 1032:1 before the copies a read makes.
// Every record it reads, written again by Writer, plain and gzipped,
// reads back equal.
func FuzzWARCReader(f *testing.F) {
	var plain, gz bytes.Buffer
	for _, buf := range []*bytes.Buffer{&plain, &gz} {
		w := NewWriter(buf, buf == &gz, testDate)
		if err := w.WriteWarcinfo(map[string]string{"software": "repro", "format": "WARC/1.0"}); err != nil {
			f.Fatal(err)
		}
		if _, _, err := w.WriteResponse("http://a.example.com/x", []byte("<html><p>(555) 123-4567</p></html>")); err != nil {
			f.Fatal(err)
		}
	}
	var bomb bytes.Buffer
	zw := gzip.NewWriter(&bomb)
	zw.Write([]byte("WARC/1.0\r\nContent-Length: 4000\r\n\r\n"))
	zw.Write(make([]byte, 4000))
	zw.Close()
	f.Add([]byte(hugeContentLength))
	f.Add(plain.Bytes())
	f.Add(gz.Bytes())
	f.Add(gz.Bytes()[:gz.Len()/2])
	f.Add(bomb.Bytes())
	f.Add([]byte("\r\n\r\nWARC/1.0\r\nX: a\rb\r\n: \r\nContent-Length: +3\r\n\r\nabc\r\n\r\nWARC/1.0\r\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []*Record
		perByte := uint64(64)
		if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
			perByte = 8 << 10
		}
		if n, limit := allocated(func() { recs, _ = readRecords(data) }), 1<<20+perByte*uint64(len(data)); n > limit {
			t.Fatalf("reading %d bytes allocated %d, over %d", len(data), n, limit)
		}
		for _, gzipped := range []bool{false, true} {
			var buf bytes.Buffer
			w := NewWriter(&buf, gzipped, testDate)
			for _, rec := range recs {
				if _, _, err := w.WriteRecord(rec); err != nil {
					t.Fatal(err)
				}
			}
			back, err := readRecords(buf.Bytes())
			if err != nil {
				t.Fatalf("gzip=%t: rewritten records fail to read: %v", gzipped, err)
			}
			if len(back) != len(recs) {
				t.Fatalf("gzip=%t: %d records read back, want %d", gzipped, len(back), len(recs))
			}
			for i := range recs {
				if !sameRecord(back[i], recs[i]) {
					t.Fatalf("gzip=%t: record %d reads back as %+v, want %+v", gzipped, i, back[i], recs[i])
				}
			}
		}
	})
}
