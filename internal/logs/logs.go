// Package logs models the study's demand data (§4.1): click logs from
// search (Yahoo! Search clicks) and browse (Yahoo! Toolbar) traffic,
// keyed by anonymized cookies, and the parser of §4.1's URL patterns
// (ParseEntityURL) that maps a clicked URL to a structured entity on
// Amazon, Yelp or IMDb.
package logs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// ErrMalformed tags line-level parse failures from Reader.Next: the
// offending line was fully consumed, so the reader is still positioned
// to continue and a replayer may skip the line (errors.Is) instead of
// aborting the whole log. I/O and scanner failures are NOT tagged —
// after those the stream is unrecoverable.
var ErrMalformed = errors.New("malformed click line")

// Source labels which traffic stream a click came from.
type Source string

// Traffic sources (§4.1).
const (
	Search Source = "search"
	Browse Source = "browse"
)

// Valid reports whether s is a known source.
func (s Source) Valid() bool { return s == Search || s == Browse }

// Site labels the three review-rich sites studied in §4.
type Site string

// Studied sites.
const (
	Amazon Site = "amazon"
	Yelp   Site = "yelp"
	IMDb   Site = "imdb"
)

// Sites lists the three sites in the paper's presentation order.
var Sites = []Site{Yelp, Amazon, IMDb}

// Valid reports whether s is a known site.
func (s Site) Valid() bool { return s == Amazon || s == Yelp || s == IMDb }

// Click is one logged visit: a cookie clicked a URL on some day.
type Click struct {
	Source Source
	Cookie uint64
	Day    int // 0-based day within the log year
	URL    string
}

// Entity URL patterns (§4.1): amazon.com/gp/product/[ID] or
// amazon.com/*/dp/[ID]; yelp.com/biz/[ID]; imdb.com/title/tt[ID].
var (
	amazonGpRe  = regexp.MustCompile(`/gp/product/([A-Z0-9]{10})(?:[/?#]|$)`)
	amazonDpRe  = regexp.MustCompile(`/dp/([A-Z0-9]{10})(?:[/?#]|$)`)
	yelpBizRe   = regexp.MustCompile(`/biz/([a-z0-9-]+?)(?:[/?#]|$)`)
	imdbTitleRe = regexp.MustCompile(`/title/(tt[0-9]{7,8})(?:[/?#]|$)`)
)

// ParseEntityURL maps a URL to (site, entity key) by §4.1's URL
// patterns, whatever the host spelling or trailing path, query and
// fragment. ok is false when the URL is not an entity page on any of
// the three sites.
func ParseEntityURL(url string) (Site, string, bool) {
	host := hostOf(url)
	switch {
	case strings.Contains(host, "amazon"):
		if m := amazonGpRe.FindStringSubmatch(url); m != nil {
			return Amazon, m[1], true
		}
		if m := amazonDpRe.FindStringSubmatch(url); m != nil {
			return Amazon, m[1], true
		}
	case strings.Contains(host, "yelp"):
		if m := yelpBizRe.FindStringSubmatch(url); m != nil {
			return Yelp, m[1], true
		}
	case strings.Contains(host, "imdb"):
		if m := imdbTitleRe.FindStringSubmatch(url); m != nil {
			return IMDb, m[1], true
		}
	}
	return "", "", false
}

func hostOf(url string) string {
	s := url
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}

// EntityURL renders the canonical entity URL for a site and key, the
// inverse of ParseEntityURL for simulator-produced keys.
func EntityURL(site Site, key string) (string, error) {
	switch site {
	case Amazon:
		return "http://www.amazon.example.com/gp/product/" + key, nil
	case Yelp:
		return "http://www.yelp.example.com/biz/" + key, nil
	case IMDb:
		return "http://www.imdb.example.com/title/" + key + "/", nil
	default:
		return "", fmt.Errorf("logs: unknown site %q", site)
	}
}

// Writer emits clicks as tab-separated lines
// (source, cookie, day, url). Each line is formatted with strconv
// straight into the bufio.Writer's free space, so a steady-state Write
// allocates nothing. The format has no escaping, so Write refuses a
// URL that Reader could not read back: one holding '\n' would split
// into two lines, and a trailing '\r' would be taken for a CRLF line
// end.
type Writer struct {
	bw    *bufio.Writer
	spill []byte // line scratch for when the buffer's free space is short
}

// NewWriter returns a click-log writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), spill: make([]byte, 0, 256)}
}

// maxNumsLen bounds a line's bytes besides source and URL: a uint64
// cookie (20 digits), an int day (20 with its sign) and 4 separators.
const maxNumsLen = 20 + 20 + 4

// Write appends one click.
//
//repro:noalloc
func (w *Writer) Write(c Click) error {
	if !c.Source.Valid() {
		return fmt.Errorf("logs: invalid source %q", c.Source) //repro:alloc-ok error path, once per bad click
	}
	if strings.IndexByte(c.URL, '\n') >= 0 || strings.HasSuffix(c.URL, "\r") {
		return fmt.Errorf("logs: URL %q does not fit one line", c.URL) //repro:alloc-ok error path, once per bad click
	}
	// A line that fits goes into the buffer's free space, which bw.Write
	// then only accounts for; one that does not is built in spill and
	// split across the flush by bw.Write, so every write reaching the
	// underlying writer is still a full buffer.
	b := w.bw.AvailableBuffer()
	spilled := cap(b) < len(c.Source)+len(c.URL)+maxNumsLen
	if spilled {
		b = w.spill[:0]
	}
	b = append(b, c.Source...)
	b = append(b, '\t')
	b = strconv.AppendUint(b, c.Cookie, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(c.Day), 10)
	b = append(b, '\t')
	b = append(b, c.URL...)
	b = append(b, '\n')
	if spilled {
		w.spill = b
	}
	if _, err := w.bw.Write(b); err != nil {
		return fmt.Errorf("logs: write click: %w", err) //repro:alloc-ok error path, the stream is dead after it
	}
	return nil
}

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("logs: flush: %w", err)
	}
	return nil
}

const (
	// readBlock is the Reader's first buffer size; each refill of the
	// buffer becomes one string.
	readBlock = 1 << 16
	// maxLine bounds a line, newline included. Past it Next fails with
	// bufio.ErrTooLong rather than buffering without limit.
	maxLine = 1 << 22
)

// Reader parses a click log written by Writer. Lines split exactly as
// bufio.ScanLines splits them: at '\n', with one trailing '\r' dropped
// and a last line without a newline still returned.
//
// The Reader reads into its own buffer and copies each refilled block
// (about 64 KiB) into one string. Lines are substrings of that string,
// so a replay costs one allocation per block, not several per line. A
// returned Click's URL therefore shares its block's allocation: while
// any URL from a block is reachable, the whole block stays live. Clone
// URLs that outlive the replay (strings.Clone).
type Reader struct {
	r     io.Reader
	buf   []byte // read buffer: readBlock bytes, doubled up to maxLine for a long line
	block string // the current block: a copy of buf's filled bytes
	pos   int    // offset in block of the next unread byte
	done  bool   // r is drained or failed: block holds the last bytes
	err   error  // the read error that ended r (nil for io.EOF)
	line  int
}

// NewReader returns a click-log reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, readBlock)}
}

// Next returns the next click, or io.EOF at end of input. Blank and
// whitespace-only lines are skipped but counted in the line numbers
// that errors carry. A malformed line returns an error wrapping
// ErrMalformed and is consumed; a read error is returned after every
// line read before it, and again on each later call.
//
//repro:noalloc
func (r *Reader) Next() (Click, error) {
	for {
		line, ok := r.nextLine()
		if !ok {
			break
		}
		r.line++
		if strings.TrimSpace(line) == "" {
			continue
		}
		return r.parse(line)
	}
	if r.err != nil {
		return Click{}, fmt.Errorf("logs: scan: %w", r.err) //repro:alloc-ok error path, once per stream
	}
	return Click{}, io.EOF
}

// parse converts one non-blank line. Fields split at the first three
// tabs; later tabs stay in the URL.
//
//repro:noalloc
func (r *Reader) parse(line string) (Click, error) {
	src, rest, ok := strings.Cut(line, "\t")
	if !ok {
		return Click{}, r.malformedFields(1)
	}
	cookieField, rest, ok := strings.Cut(rest, "\t")
	if !ok {
		return Click{}, r.malformedFields(2)
	}
	dayField, url, ok := strings.Cut(rest, "\t")
	if !ok {
		return Click{}, r.malformedFields(3)
	}
	c := Click{URL: url}
	// The constants, not the field, so a Click pins its block by the
	// URL alone.
	switch src {
	case string(Search):
		c.Source = Search
	case string(Browse):
		c.Source = Browse
	default:
		return Click{}, fmt.Errorf("logs: line %d bad source %q: %w", r.line, src, ErrMalformed) //repro:alloc-ok error path, once per malformed line
	}
	var err error
	if c.Cookie, err = strconv.ParseUint(cookieField, 10, 64); err != nil {
		return Click{}, fmt.Errorf("logs: line %d cookie %q: %w", r.line, cookieField, ErrMalformed) //repro:alloc-ok error path, once per malformed line
	}
	if c.Day, err = strconv.Atoi(dayField); err != nil {
		return Click{}, fmt.Errorf("logs: line %d day %q: %w", r.line, dayField, ErrMalformed) //repro:alloc-ok error path, once per malformed line
	}
	return c, nil
}

func (r *Reader) malformedFields(n int) error {
	return fmt.Errorf("logs: line %d has %d fields: %w", r.line, n, ErrMalformed)
}

// nextLine returns the next line without its '\n' and one trailing
// '\r', or false once the input is exhausted or has failed.
//
//repro:noalloc
func (r *Reader) nextLine() (string, bool) {
	for {
		rest := r.block[r.pos:]
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			r.pos += i + 1
			return strings.TrimSuffix(rest[:i], "\r"), true
		}
		if r.done {
			if rest == "" {
				return "", false
			}
			r.pos = len(r.block)
			return strings.TrimSuffix(rest, "\r"), true
		}
		r.fill()
	}
}

// fill starts a new block: it moves the unfinished line at the end of
// the current one to the front of buf and reads after it until a
// newline arrives, buf fills, or the input ends or fails. Reads stop
// at the first error, as bufio.Scanner's do, and the error is held
// until every line before it is out. A line that fills a maxLine
// buffer fails with bufio.ErrTooLong even if the input ends right
// after it, again as bufio.Scanner does.
func (r *Reader) fill() {
	n := copy(r.buf, r.block[r.pos:])
	if n == len(r.buf) {
		if n >= maxLine {
			r.block, r.pos, r.done, r.err = "", 0, true, bufio.ErrTooLong
			return
		}
		grown := make([]byte, min(2*len(r.buf), maxLine))
		copy(grown, r.buf)
		r.buf = grown
	}
	for empties := 0; ; {
		m, err := r.r.Read(r.buf[n:])
		if m < 0 || m > len(r.buf)-n {
			m, err = 0, bufio.ErrBadReadCount
		}
		from := n
		n += m
		if err != nil {
			r.done = true
			if err != io.EOF {
				r.err = err
			}
			break
		}
		if m > 0 {
			empties = 0
			if n == len(r.buf) || bytes.IndexByte(r.buf[from:n], '\n') >= 0 {
				break
			}
		} else if empties++; empties == 100 {
			r.done, r.err = true, io.ErrNoProgress
			break
		}
	}
	r.block, r.pos = string(r.buf[:n]), 0
}
