package logs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// oracleReader is the click-log reader Reader replaced: bufio.Scanner
// line splitting and strings.SplitN fields, one string and one slice
// per line. It is the oracle for Reader's line, field and error
// semantics.
type oracleReader struct {
	sc   *bufio.Scanner
	line int
}

func newOracleReader(r io.Reader) *oracleReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	return &oracleReader{sc: sc}
}

func (r *oracleReader) Next() (Click, error) {
	for r.sc.Scan() {
		r.line++
		line := r.sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 4)
		if len(parts) != 4 {
			return Click{}, fmt.Errorf("logs: line %d has %d fields: %w", r.line, len(parts), ErrMalformed)
		}
		src := Source(parts[0])
		if !src.Valid() {
			return Click{}, fmt.Errorf("logs: line %d bad source %q: %w", r.line, parts[0], ErrMalformed)
		}
		cookie, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil {
			return Click{}, fmt.Errorf("logs: line %d cookie %q: %w", r.line, parts[1], ErrMalformed)
		}
		day, err := strconv.Atoi(parts[2])
		if err != nil {
			return Click{}, fmt.Errorf("logs: line %d day %q: %w", r.line, parts[2], ErrMalformed)
		}
		return Click{Source: src, Cookie: cookie, Day: day, URL: parts[3]}, nil
	}
	if err := r.sc.Err(); err != nil {
		return Click{}, fmt.Errorf("logs: scan: %w", err)
	}
	return Click{}, io.EOF
}

// oracleWrite is the Fprintf line format Writer.Write replaced.
func oracleWrite(w io.Writer, c Click) error {
	_, err := fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", c.Source, c.Cookie, c.Day, c.URL)
	return err
}

// outcome is one Next result, errors compared by message and by
// whether they wrap ErrMalformed.
type outcome struct {
	click     Click
	err       string
	malformed bool
}

// drain reads a log to its end: every click and malformed line, then
// the io.EOF or fatal error that ends it. It gives up after limit
// results so a reader that never ends fails instead of hanging.
func drain(t *testing.T, next func() (Click, error), limit int) []outcome {
	t.Helper()
	var out []outcome
	for len(out) < limit {
		c, err := next()
		if err == nil {
			out = append(out, outcome{click: c})
			continue
		}
		o := outcome{err: err.Error(), malformed: errors.Is(err, ErrMalformed)}
		out = append(out, o)
		if !o.malformed {
			return out
		}
	}
	t.Fatalf("log did not end after %d results", limit)
	return nil
}

// sameOutcomes fails the test at the first result where got and want
// differ.
func sameOutcomes(t *testing.T, name string, got, want []outcome) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w outcome
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s: result %d = %+v, oracle says %+v", name, i, g, w)
		}
	}
}

// FuzzLogsReader reads arbitrary bytes three ways: through Reader
// directly, through Reader fed one byte per Read (so every line crosses
// a refill), and through the bufio.Scanner oracle. All three must give
// the same clicks, the same malformed lines with the same messages, and
// the same end. Every click read must then write through Writer to the
// oracle's bytes and read back equal — except a URL ending in '\r'
// (a line ending "\r\r\n" reads as one), which the format cannot
// carry and Writer must refuse, writing nothing.
func FuzzLogsReader(f *testing.F) {
	for _, s := range []string{
		"",
		"search\t1\t2\thttp://x\n",
		"search\t42\t100\thttp://www.yelp.example.com/biz/golden-kitchen-3\nbrowse\t7\t0\thttp://www.imdb.example.com/title/tt0000001/\n",
		"browse\t1\t2\thttp://x\r\nsearch\t3\t4\thttp://y",
		"\n \n\t\r\n  \nsearch\t1\t2\thttp://x\n\n",
		"search\t1\t2\thttp://x/a\tb\tc\n",
		"too\tfew\nbogus\t1\t2\thttp://x\nsearch\tNaN\t2\thttp://x\nsearch\t1\tNaN\thttp://x\n",
		"search\t-1\t2\tx\nsearch\t+1\t+2\tx\nsearch\t18446744073709551616\t2\tx\nsearch\t1\t-0\tx\n",
		"search\t1\t2\tx\r\r\n\r",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := bytes.Count(data, []byte("\n")) + 2
		want := drain(t, newOracleReader(bytes.NewReader(data)).Next, limit)
		sameOutcomes(t, "Reader", drain(t, NewReader(bytes.NewReader(data)).Next, limit), want)
		sameOutcomes(t, "Reader over OneByteReader",
			drain(t, NewReader(iotest.OneByteReader(bytes.NewReader(data))).Next, limit), want)

		for _, o := range want {
			if o.err != "" {
				continue
			}
			var got, line bytes.Buffer
			w := NewWriter(&got)
			if strings.HasSuffix(o.click.URL, "\r") {
				if err := w.Write(o.click); err == nil {
					t.Fatalf("Write(%+v) accepted a URL ending in '\\r'", o.click)
				}
				if err := w.Flush(); err != nil || got.Len() != 0 {
					t.Fatalf("refused Write(%+v) left %q, %v", o.click, got.Bytes(), err)
				}
				continue
			}
			if err := w.Write(o.click); err != nil {
				t.Fatalf("Write(%+v): %v", o.click, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := oracleWrite(&line, o.click); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), line.Bytes()) {
				t.Fatalf("Write(%+v) = %q, oracle writes %q", o.click, got.Bytes(), line.Bytes())
			}
			back, err := NewReader(&got).Next()
			if err != nil {
				t.Fatalf("reading back %q: %v", line.Bytes(), err)
			}
			if back != o.click {
				t.Fatalf("%+v wrote %q and read back as %+v", o.click, line.Bytes(), back)
			}
		}
	})
}
