// Package warc reads and writes WARC 1.0 files, the ISO 28500 archive
// format used by web crawls. The synthetic crawl is persisted as WARC so
// the extraction pipeline consumes the same artifact a real crawl would
// produce. Both plain and gzip storage are supported; gzipped WARCs use
// one gzip member per record, the layout real crawlers emit so records
// can be fetched by byte offset.
package warc

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha1"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Record types defined by the WARC spec that this package emits.
const (
	TypeWarcinfo = "warcinfo"
	TypeResponse = "response"
	TypeRequest  = "request"
	TypeMetadata = "metadata"
)

// Record is one WARC record: named header fields plus a content block.
type Record struct {
	// Headers holds the WARC named fields. Keys are canonical
	// ("WARC-Type", "WARC-Target-URI", "Content-Type", ...).
	Headers map[string]string
	// Content is the record block, excluding the trailing CRLFCRLF.
	Content []byte
}

// Type returns the WARC-Type header.
func (r *Record) Type() string { return r.Headers["WARC-Type"] }

// TargetURI returns the WARC-Target-URI header.
func (r *Record) TargetURI() string { return r.Headers["WARC-Target-URI"] }

// Writer emits WARC records to an underlying writer.
type Writer struct {
	w io.Writer
	// gz compresses each record into zbuf as one gzip member; nil
	// writes plain records. One compressor, Reset per member, serves
	// every record: a new one costs about 1 MB to allocate and clear.
	gz      *gzip.Writer
	zbuf    bytes.Buffer
	date    string // fixed WARC-Date for deterministic output
	nextSeq int
	offset  int64
}

// NewWriter returns a Writer targeting w. If gzipped is true each record
// is written as an independent gzip member. date is the WARC-Date stamped
// on every record (the reproduction pins it for determinism); it must be
// a W3C timestamp like "2012-03-29T00:00:00Z".
func NewWriter(w io.Writer, gzipped bool, date string) *Writer {
	wr := &Writer{w: w, date: date}
	if gzipped {
		wr.gz = gzip.NewWriter(&wr.zbuf)
	}
	return wr
}

// Offset returns the byte offset at which the next record will start.
func (w *Writer) Offset() int64 { return w.offset }

// WriteRecord writes one record, filling in WARC/1.0 framing, the
// record ID, date and content length. It returns the starting offset of
// the record and the number of bytes written.
func (w *Writer) WriteRecord(rec *Record) (offset, length int64, err error) {
	var buf bytes.Buffer
	buf.WriteString("WARC/1.0\r\n")
	id := w.recordID(rec)
	writeHeader := func(k, v string) {
		buf.WriteString(k)
		buf.WriteString(": ")
		buf.WriteString(v)
		buf.WriteString("\r\n")
	}
	writeHeader("WARC-Type", rec.Headers["WARC-Type"])
	writeHeader("WARC-Record-ID", id)
	writeHeader("WARC-Date", w.date)
	if v := rec.Headers["WARC-Target-URI"]; v != "" {
		writeHeader("WARC-Target-URI", v)
	}
	if v := rec.Headers["Content-Type"]; v != "" {
		writeHeader("Content-Type", v)
	}
	// Pass through extension headers in sorted order so output is
	// byte-reproducible.
	var extras []string
	for k := range rec.Headers {
		switch k {
		case "WARC-Type", "WARC-Record-ID", "WARC-Date", "WARC-Target-URI", "Content-Type", "Content-Length":
		default:
			extras = append(extras, k)
		}
	}
	sort.Strings(extras)
	for _, k := range extras {
		writeHeader(k, rec.Headers[k])
	}
	writeHeader("Content-Length", strconv.Itoa(len(rec.Content)))
	buf.WriteString("\r\n")
	buf.Write(rec.Content)
	buf.WriteString("\r\n\r\n")

	start := w.offset
	var n int
	if w.gz != nil {
		w.zbuf.Reset()
		w.gz.Reset(&w.zbuf)
		if _, err := w.gz.Write(buf.Bytes()); err != nil {
			return 0, 0, fmt.Errorf("warc: gzip record: %w", err)
		}
		if err := w.gz.Close(); err != nil {
			return 0, 0, fmt.Errorf("warc: gzip close: %w", err)
		}
		n, err = w.w.Write(w.zbuf.Bytes())
	} else {
		n, err = w.w.Write(buf.Bytes())
	}
	if err != nil {
		return 0, 0, fmt.Errorf("warc: write record: %w", err)
	}
	w.offset += int64(n)
	w.nextSeq++
	return start, int64(n), nil
}

// recordID derives a deterministic urn:uuid-style ID from the record
// sequence number and target URI.
func (w *Writer) recordID(rec *Record) string {
	h := sha1.Sum([]byte(fmt.Sprintf("%d|%s|%s", w.nextSeq, rec.Headers["WARC-Target-URI"], w.date)))
	return fmt.Sprintf("<urn:uuid:%x-%x-%x-%x-%x>", h[0:4], h[4:6], h[6:8], h[8:10], h[10:16])
}

// WriteWarcinfo writes the leading warcinfo record describing the file.
// Fields are emitted in sorted key order for reproducible output.
func (w *Writer) WriteWarcinfo(fields map[string]string) error {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var body bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&body, "%s: %s\r\n", k, fields[k])
	}
	_, _, err := w.WriteRecord(&Record{
		Headers: map[string]string{
			"WARC-Type":    TypeWarcinfo,
			"Content-Type": "application/warc-fields",
		},
		Content: body.Bytes(),
	})
	return err
}

// WriteResponse writes an HTTP response record for the given URI with an
// HTML body, returning the record's offset and length.
func (w *Writer) WriteResponse(uri string, html []byte) (offset, length int64, err error) {
	var body bytes.Buffer
	fmt.Fprintf(&body, "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: %d\r\n\r\n", len(html))
	body.Write(html)
	return w.WriteRecord(&Record{
		Headers: map[string]string{
			"WARC-Type":       TypeResponse,
			"WARC-Target-URI": uri,
			"Content-Type":    "application/http; msgtype=response",
		},
		Content: body.Bytes(),
	})
}

// maxRecordBytes bounds one decompressed gzip member: 64 MiB, far above
// any page record a crawl stores (crawlers truncate responses at a few
// MiB). A member that inflates past it fails Next, so a small
// compressed input cannot expand without bound in memory. A variable
// so tests can lower it.
var maxRecordBytes int64 = 64 << 20

// Reader reads WARC records sequentially from an underlying reader,
// transparently handling per-record gzip members. A gzip member may
// decompress to at most 64 MiB.
type Reader struct {
	br   *bufio.Reader
	gzip bool
}

// NewReader returns a Reader over r. It sniffs gzip magic bytes to
// decide whether the stream is compressed.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	magic, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("warc: peek: %w", err)
	}
	gz := len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b
	return &Reader{br: br, gzip: gz}, nil
}

// Next returns the next record, or io.EOF at end of input.
func (r *Reader) Next() (*Record, error) {
	if r.gzip {
		// Each record is its own gzip member; gzip.Reader with
		// Multistream(false) stops at the member boundary.
		gz, err := gzip.NewReader(r.br)
		if err != nil {
			if err == io.EOF {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("warc: gzip member: %w", err)
		}
		gz.Multistream(false)
		data, err := io.ReadAll(io.LimitReader(gz, maxRecordBytes+1))
		if err != nil {
			return nil, fmt.Errorf("warc: decompress record: %w", err)
		}
		if int64(len(data)) > maxRecordBytes {
			return nil, fmt.Errorf("warc: gzip member decompresses past %d bytes", maxRecordBytes)
		}
		if err := gz.Close(); err != nil {
			return nil, fmt.Errorf("warc: gzip close: %w", err)
		}
		return parseRecord(bufio.NewReader(bytes.NewReader(data)))
	}
	return parseRecord(r.br)
}

// parseRecord reads one uncompressed record from br.
func parseRecord(br *bufio.Reader) (*Record, error) {
	// Skip blank lines between records.
	var line string
	for {
		l, err := br.ReadString('\n')
		if err != nil {
			if err == io.EOF && strings.TrimSpace(l) == "" {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("warc: read version line: %w", err)
		}
		if strings.TrimSpace(l) != "" {
			line = l
			break
		}
	}
	version := strings.TrimSpace(line)
	if !strings.HasPrefix(version, "WARC/") {
		return nil, fmt.Errorf("warc: bad version line %q", version)
	}
	rec := &Record{Headers: make(map[string]string, 8)}
	for {
		l, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("warc: read header: %w", err)
		}
		l = strings.TrimRight(l, "\r\n")
		if l == "" {
			break
		}
		i := strings.IndexByte(l, ':')
		if i < 0 {
			return nil, fmt.Errorf("warc: malformed header line %q", l)
		}
		rec.Headers[strings.TrimSpace(l[:i])] = strings.TrimSpace(l[i+1:])
	}
	n, err := strconv.Atoi(rec.Headers["Content-Length"])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("warc: bad Content-Length %q", rec.Headers["Content-Length"])
	}
	// Read through a limit rather than into make([]byte, n): the buffer
	// grows with the bytes that arrive, so a forged Content-Length costs
	// no more memory than the input holds.
	content, err := io.ReadAll(io.LimitReader(br, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("warc: read content: %w", err)
	}
	if len(content) < n {
		return nil, fmt.Errorf("warc: read content: %d of %d bytes: %w", len(content), n, io.ErrUnexpectedEOF)
	}
	rec.Content = content
	return rec, nil
}

// ParseHTTPResponse splits an application/http response block into its
// status line, headers and body. It returns an error if the block is not
// an HTTP response.
func ParseHTTPResponse(block []byte) (status string, headers map[string]string, body []byte, err error) {
	sep := bytes.Index(block, []byte("\r\n\r\n"))
	if sep < 0 {
		return "", nil, nil, fmt.Errorf("warc: http block missing header terminator")
	}
	head := string(block[:sep])
	body = block[sep+4:]
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "HTTP/") {
		return "", nil, nil, fmt.Errorf("warc: not an http response: %q", lines[0])
	}
	status = lines[0]
	headers = make(map[string]string, len(lines)-1)
	for _, l := range lines[1:] {
		if i := strings.IndexByte(l, ':'); i >= 0 {
			headers[strings.TrimSpace(l[:i])] = strings.TrimSpace(l[i+1:])
		}
	}
	return status, headers, body, nil
}
