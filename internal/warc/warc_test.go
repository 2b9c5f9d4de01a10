package warc

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

const testDate = "2012-03-29T00:00:00Z"

func TestWriteReadRoundTripPlain(t *testing.T) {
	roundTrip(t, false)
}

func TestWriteReadRoundTripGzip(t *testing.T) {
	roundTrip(t, true)
}

func roundTrip(t *testing.T, gz bool) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, gz, testDate)
	if err := w.WriteWarcinfo(map[string]string{"software": "repro-crawler"}); err != nil {
		t.Fatal(err)
	}
	pages := map[string]string{
		"http://a.example.com/1": "<html><body>Page one (415) 555-1234</body></html>",
		"http://b.example.com/2": "<html><body>Page two</body></html>",
	}
	for uri, html := range pages {
		if _, _, err := w.WriteResponse(uri, []byte(html)); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type() != TypeWarcinfo {
		t.Errorf("first record type = %q", rec.Type())
	}
	if !strings.Contains(string(rec.Content), "repro-crawler") {
		t.Error("warcinfo content lost")
	}
	got := map[string]string{}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type() != TypeResponse {
			t.Errorf("record type = %q", rec.Type())
		}
		_, headers, body, err := ParseHTTPResponse(rec.Content)
		if err != nil {
			t.Fatal(err)
		}
		if ct := headers["Content-Type"]; !strings.HasPrefix(ct, "text/html") {
			t.Errorf("Content-Type = %q", ct)
		}
		got[rec.TargetURI()] = string(body)
	}
	if len(got) != len(pages) {
		t.Fatalf("read %d responses, want %d", len(got), len(pages))
	}
	for uri, html := range pages {
		if got[uri] != html {
			t.Errorf("uri %s: body %q, want %q", uri, got[uri], html)
		}
	}
}

func TestWriterOffsets(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, false, testDate)
	off1, len1, err := w.WriteResponse("http://x.example.com/", []byte("<p>a</p>"))
	if err != nil {
		t.Fatal(err)
	}
	off2, _, err := w.WriteResponse("http://y.example.com/", []byte("<p>b</p>"))
	if err != nil {
		t.Fatal(err)
	}
	if off1 != 0 {
		t.Errorf("first offset = %d", off1)
	}
	if off2 != len1 {
		t.Errorf("second offset = %d, want %d", off2, len1)
	}
	if w.Offset() != int64(buf.Len()) {
		t.Errorf("writer offset %d != buffer length %d", w.Offset(), buf.Len())
	}
}

func TestGzipRandomAccess(t *testing.T) {
	// Each gzip member must be independently readable from its offset.
	var buf bytes.Buffer
	w := NewWriter(&buf, true, testDate)
	type loc struct{ off, n int64 }
	var locs []loc
	uris := []string{"http://a.example.com/", "http://b.example.com/", "http://c.example.com/"}
	for _, uri := range uris {
		off, n, err := w.WriteResponse(uri, []byte("<html>"+uri+"</html>"))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc{off, n})
	}
	for i, l := range locs {
		slice := buf.Bytes()[l.off : l.off+l.n]
		r, err := NewReader(bytes.NewReader(slice))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.TargetURI() != uris[i] {
			t.Errorf("record %d uri = %q, want %q", i, rec.TargetURI(), uris[i])
		}
	}
}

func TestRecordIDsDeterministicAndDistinct(t *testing.T) {
	run := func() []string {
		var buf bytes.Buffer
		w := NewWriter(&buf, false, testDate)
		for _, uri := range []string{"http://a.example.com/", "http://b.example.com/"} {
			if _, _, err := w.WriteResponse(uri, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		r, _ := NewReader(bytes.NewReader(buf.Bytes()))
		var ids []string
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, rec.Headers["WARC-Record-ID"])
		}
		return ids
	}
	a, b := run(), run()
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("record IDs not deterministic")
	}
	if a[0] == a[1] {
		t.Error("distinct records share an ID")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	r, err := NewReader(strings.NewReader("this is not a warc file\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("garbage input should fail")
	}
}

func TestReaderEmptyInput(t *testing.T) {
	r, err := NewReader(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty input: err = %v, want EOF", err)
	}
}

func TestParseHTTPResponseErrors(t *testing.T) {
	if _, _, _, err := ParseHTTPResponse([]byte("no terminator")); err == nil {
		t.Error("missing terminator should fail")
	}
	if _, _, _, err := ParseHTTPResponse([]byte("GET / HTTP/1.1\r\n\r\n")); err == nil {
		t.Error("request line should fail response parse")
	}
}

func TestParseHTTPResponseBody(t *testing.T) {
	block := []byte("HTTP/1.1 200 OK\r\nX-Test: yes\r\n\r\nhello\r\nworld")
	status, headers, body, err := ParseHTTPResponse(block)
	if err != nil {
		t.Fatal(err)
	}
	if status != "HTTP/1.1 200 OK" {
		t.Errorf("status = %q", status)
	}
	if headers["X-Test"] != "yes" {
		t.Errorf("headers = %v", headers)
	}
	if string(body) != "hello\r\nworld" {
		t.Errorf("body = %q", body)
	}
}

func TestContentLengthTruncation(t *testing.T) {
	// A record whose declared length exceeds available bytes must error,
	// not hang or return partial data silently.
	raw := "WARC/1.0\r\nWARC-Type: response\r\nContent-Length: 100\r\n\r\nshort"
	r, err := NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("truncated record should fail")
	}
}

// TestHugeContentLengthErrors: a record declaring far more content than
// the input holds must fail with an error, not allocate the declared
// length up front (which panics for lengths past the address space).
func TestHugeContentLengthErrors(t *testing.T) {
	raw := "WARC/1.0\r\nContent-Length: 9000000000000000000\r\n\r\nx"
	r, err := NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("err = %v, want a short-content error", err)
	}
}

func TestRoundTripQuickBodies(t *testing.T) {
	f := func(body []byte, gz bool) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf, gz, testDate)
		if _, _, err := w.WriteResponse("http://q.example.com/", body); err != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		rec, err := r.Next()
		if err != nil {
			return false
		}
		_, _, got, err := ParseHTTPResponse(rec.Content)
		return err == nil && bytes.Equal(got, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGzipMemberBounded: a gzip member that inflates past
// maxRecordBytes fails Next instead of being read whole, while one
// exactly at the limit still reads.
func TestGzipMemberBounded(t *testing.T) {
	defer func(old int64) { maxRecordBytes = old }(maxRecordBytes)
	maxRecordBytes = 64 << 10
	record := func(bodyLen int, gz bool) []byte {
		var buf bytes.Buffer
		body := bytes.Repeat([]byte("a"), bodyLen)
		if _, _, err := NewWriter(&buf, gz, testDate).WriteResponse("http://z.example.com/", body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	read := func(member []byte) error {
		r, err := NewReader(bytes.NewReader(member))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Next()
		return err
	}

	bomb := record(1<<20, true)
	if len(bomb) > 8<<10 {
		t.Fatalf("test member is %d bytes compressed; want a small one", len(bomb))
	}
	if err := read(bomb); err == nil || err == io.EOF || !strings.Contains(err.Error(), "decompresses past") {
		t.Fatalf("1 MiB member under a 64 KiB limit: err = %v, want a size error", err)
	}

	// Size a body so the decompressed record is exactly the limit (the
	// Content-Length digits do not change between the two sizes).
	bodyLen := int(maxRecordBytes) - 1000
	bodyLen += int(maxRecordBytes) - len(record(bodyLen, false))
	if n := len(record(bodyLen, false)); n != int(maxRecordBytes) {
		t.Fatalf("sized record is %d bytes, want %d", n, maxRecordBytes)
	}
	if err := read(record(bodyLen, true)); err != nil {
		t.Fatalf("member at the limit: %v", err)
	}
	if err := read(record(bodyLen+1, true)); err == nil {
		t.Fatal("member one byte past the limit read without error")
	}
}

// TestGzipMembersMatchFreshWriters: the gzipped Writer reuses one
// compressor across records, so its bytes must equal each plain record
// compressed on its own by a fresh gzip.Writer, the oracle. The records
// differ in size and compressibility, so the reused compressor meets
// every state a previous member can leave behind.
func TestGzipMembersMatchFreshWriters(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	noise := make([]byte, 70<<10)
	for i := range noise {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		noise[i] = byte(x)
	}
	bodies := [][]byte{
		nil,
		[]byte("<html>(415) 555-1234</html>"),
		noise,
		bytes.Repeat([]byte("<p>Blue Bottle Coffee, 66 Mint St</p>"), 8<<10),
		noise[:333],
	}
	var plain, gzipped bytes.Buffer
	pw, gw := NewWriter(&plain, false, testDate), NewWriter(&gzipped, true, testDate)
	var want bytes.Buffer
	for i, body := range bodies {
		uri := "http://r" + strings.Repeat("x", i) + ".example.com/"
		poff, pn, err := pw.WriteResponse(uri, body)
		if err != nil {
			t.Fatal(err)
		}
		goff, gn, err := gw.WriteResponse(uri, body)
		if err != nil {
			t.Fatal(err)
		}
		start := want.Len()
		zw := gzip.NewWriter(&want)
		if _, err := zw.Write(plain.Bytes()[poff : poff+pn]); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if goff != int64(start) || gn != int64(want.Len()-start) {
			t.Errorf("record %d at %d+%d, oracle member at %d+%d", i, goff, gn, start, want.Len()-start)
		}
	}
	if !bytes.Equal(gzipped.Bytes(), want.Bytes()) {
		t.Errorf("gzipped WARC (%d bytes) differs from per-record fresh members (%d bytes)", gzipped.Len(), want.Len())
	}
}

// Offset returns the byte offset at which the next record will start.
func (w *Writer) Offset() int64 { return w.offset }
