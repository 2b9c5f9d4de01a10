package logs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func TestParseEntityURL(t *testing.T) {
	cases := []struct {
		url  string
		site Site
		key  string
		ok   bool
	}{
		{"http://www.amazon.example.com/gp/product/B00A1B2C3D", Amazon, "B00A1B2C3D", true},
		{"http://www.amazon.example.com/Widget-Pro/dp/B00A1B2C3D", Amazon, "B00A1B2C3D", true},
		{"http://www.amazon.example.com/gp/product/B00A1B2C3D?ref=sr_1", Amazon, "B00A1B2C3D", true},
		{"https://amazon.com/Some-Thing/dp/0306406152/ref=x", Amazon, "0306406152", true},
		{"http://www.yelp.example.com/biz/golden-kitchen-springfield-3", Yelp, "golden-kitchen-springfield-3", true},
		{"http://yelp.com/biz/cafe-x?osq=food", Yelp, "cafe-x", true},
		{"http://www.imdb.example.com/title/tt0111161/", IMDb, "tt0111161", true},
		{"http://imdb.com/title/tt01111612", IMDb, "tt01111612", true},
		{"http://www.amazon.example.com/gp/help/customer", "", "", false},
		{"http://www.yelp.example.com/events/some-event", "", "", false},
		{"http://www.imdb.example.com/name/nm0000151/", "", "", false},
		{"http://unrelated.example.com/biz/x", "", "", false},
		{"not a url at all", "", "", false},
	}
	for _, c := range cases {
		site, key, ok := ParseEntityURL(c.url)
		if site != c.site || key != c.key || ok != c.ok {
			t.Errorf("ParseEntityURL(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.url, site, key, ok, c.site, c.key, c.ok)
		}
	}
}

func TestEntityURLRoundTrip(t *testing.T) {
	cases := []struct {
		site Site
		key  string
	}{
		{Amazon, "B00A1B2C3D"},
		{Yelp, "biz-slug-42"},
		{IMDb, "tt0000043"},
	}
	for _, c := range cases {
		url, err := EntityURL(c.site, c.key)
		if err != nil {
			t.Fatal(err)
		}
		site, key, ok := ParseEntityURL(url)
		if !ok || site != c.site || key != c.key {
			t.Errorf("round trip %v/%v -> %q -> (%v, %v, %v)", c.site, c.key, url, site, key, ok)
		}
	}
	if _, err := EntityURL("ebay", "x"); err == nil {
		t.Error("unknown site should fail")
	}
}

func TestSourceAndSiteValidity(t *testing.T) {
	if !Search.Valid() || !Browse.Valid() || Source("other").Valid() {
		t.Error("Source.Valid broken")
	}
	if !Amazon.Valid() || !Yelp.Valid() || !IMDb.Valid() || Site("ebay").Valid() {
		t.Error("Site.Valid broken")
	}
	if len(Sites) != 3 {
		t.Error("Sites should list 3 sites")
	}
}

func TestClickLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	clicks := []Click{
		{Source: Search, Cookie: 42, Day: 100, URL: "http://yelp.com/biz/a"},
		{Source: Browse, Cookie: 7, Day: 0, URL: "http://imdb.com/title/tt0000001/"},
		{Source: Search, Cookie: 1 << 60, Day: 364, URL: "http://amazon.com/gp/product/B000000001"},
	}
	for _, c := range clicks {
		if err := w.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range clicks {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("click %d: %v", i, err)
		}
		if got != want {
			t.Errorf("click %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestWriterRejectsBadSource(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Write(Click{Source: "bogus"}); err == nil {
		t.Error("invalid source should fail")
	}
}

// TestWriterRejectsUnwritableURL: a URL the line format cannot carry is
// refused and nothing is written, while a '\r' inside a URL, which
// reads back intact, is accepted.
func TestWriterRejectsUnwritableURL(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, url := range []string{"http://x/a\nb", "http://x/\n", "\n", "http://x/\r", "http://x/\r\n"} {
		if err := w.Write(Click{Source: Search, Cookie: 1, Day: 2, URL: url}); err == nil {
			t.Errorf("Write accepted URL %q", url)
		}
	}
	if err := w.Write(Click{Source: Search, Cookie: 1, Day: 2, URL: "http://x/a\rb"}); err != nil {
		t.Fatalf("Write refused an inner '\\r': %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "search\t1\t2\thttp://x/a\rb\n"; got != want {
		t.Fatalf("wrote %q, want %q", got, want)
	}
	c, err := NewReader(&buf).Next()
	if err != nil || c.URL != "http://x/a\rb" {
		t.Fatalf("read back %+v, %v", c, err)
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []string{
		"too\tfew\n",
		"bogus\t1\t2\thttp://x\n",
		"search\tNaN\t2\thttp://x\n",
		"search\t1\tNaN\thttp://x\n",
	}
	for _, c := range cases {
		r := NewReader(strings.NewReader(c))
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Errorf("input %q should fail, got %v", c, err)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("input %q: error %v should wrap ErrMalformed", c, err)
		}
	}
}

// TestReaderContinuesPastMalformedLine pins the skip contract behind
// ErrMalformed: the bad line is consumed, so the caller can keep
// reading and recover every well-formed click after it.
func TestReaderContinuesPastMalformedLine(t *testing.T) {
	r := NewReader(strings.NewReader(
		"search\t1\t2\thttp://x\n" +
			"garbage line\n" +
			"browse\t9\t3\thttp://y\n"))
	c, err := r.Next()
	if err != nil || c.Cookie != 1 {
		t.Fatalf("first click: %+v %v", c, err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("second line should be malformed, got %v", err)
	}
	c, err = r.Next()
	if err != nil || c.Cookie != 9 {
		t.Fatalf("third click after skip: %+v %v", c, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	r := NewReader(strings.NewReader("\n\nsearch\t1\t2\thttp://x\n\n"))
	c, err := r.Next()
	if err != nil || c.Cookie != 1 {
		t.Errorf("blank lines should skip: %+v %v", c, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestURLWithTabRejectedGracefully(t *testing.T) {
	// URLs never contain raw tabs in our pipeline; SplitN(4) keeps any
	// tail tabs inside the URL field rather than corrupting parsing.
	r := NewReader(strings.NewReader("search\t1\t2\thttp://x/a\tb\n"))
	c, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if c.URL != "http://x/a\tb" {
		t.Errorf("URL = %q", c.URL)
	}
}

// TestReaderEdgeCases pins the line semantics Reader keeps from
// bufio.Scanner, each case read through Reader and through the Scanner
// oracle (oracle_test.go), which must agree result for result.
func TestReaderEdgeCases(t *testing.T) {
	click := func(src Source, cookie uint64, day int, url string) outcome {
		return outcome{click: Click{Source: src, Cookie: cookie, Day: day, URL: url}}
	}
	eof := outcome{err: io.EOF.Error()}
	// edgeLog puts a line's '\n' at offset readBlock+off: at, just before
	// and just after the first block's end.
	edgeLog := func(off int) (string, outcome) {
		head := "search\t1\t2\thttp://x\n"
		pad := readBlock + off - len(head) - len("browse\t3\t4\t")
		url := "http://y/" + strings.Repeat("a", pad-len("http://y/"))
		return head + "browse\t3\t4\t" + url + "\nsearch\t5\t6\thttp://z\n", click(Browse, 3, 4, url)
	}
	type edgeCase struct {
		name string
		log  string
		want []outcome // nil: compare with the oracle only
	}
	cases := []edgeCase{
		{name: "crlf", log: "search\t1\t2\thttp://x\r\nbrowse\t3\t4\thttp://y\r\n",
			want: []outcome{click(Search, 1, 2, "http://x"), click(Browse, 3, 4, "http://y"), eof}},
		{name: "no final newline", log: "search\t1\t2\thttp://x\nbrowse\t3\t4\thttp://y",
			want: []outcome{click(Search, 1, 2, "http://x"), click(Browse, 3, 4, "http://y"), eof}},
		{name: "no final newline crlf", log: "search\t1\t2\thttp://x\r",
			want: []outcome{click(Search, 1, 2, "http://x"), eof}},
		{name: "whitespace-only lines", log: " \n\t\t\n\r\n  \n\v\f\nbad\nsearch\t1\t2\thttp://x\n  ",
			want: []outcome{
				{err: "logs: line 6 has 1 fields: " + ErrMalformed.Error(), malformed: true},
				click(Search, 1, 2, "http://x"), eof}},
		{name: "three fields", log: "search\t1\t2\nsearch\t1\t2\t\n",
			want: []outcome{
				{err: "logs: line 1 has 3 fields: " + ErrMalformed.Error(), malformed: true},
				click(Search, 1, 2, ""), eof}},
		{name: "url with tabs", log: "search\t1\t2\thttp://x/a\tb\t\tc\n",
			want: []outcome{click(Search, 1, 2, "http://x/a\tb\t\tc"), eof}},
	}
	for _, off := range []int{-2, -1, 0, 1} {
		log, mid := edgeLog(off)
		cases = append(cases, edgeCase{fmt.Sprintf("newline at block end %+d", off), log,
			[]outcome{click(Search, 1, 2, "http://x"), mid, click(Search, 5, 6, "http://z"), eof}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := drain(t, NewReader(strings.NewReader(c.log)).Next, 100)
			sameOutcomes(t, "oracle", drain(t, newOracleReader(strings.NewReader(c.log)).Next, 100), got)
			if c.want != nil {
				sameOutcomes(t, "Reader", got, c.want)
			}
		})
	}

	// A line past maxLine fails the stream, not the line.
	t.Run("line too long", func(t *testing.T) {
		log := "search\t1\t2\thttp://x\nsearch\t1\t2\t" + strings.Repeat("a", maxLine) + "\nsearch\t1\t2\thttp://y\n"
		got := drain(t, NewReader(strings.NewReader(log)).Next, 10)
		sameOutcomes(t, "oracle", drain(t, newOracleReader(strings.NewReader(log)).Next, 10), got)
		last := got[len(got)-1]
		if len(got) != 2 || last.malformed || !strings.Contains(last.err, bufio.ErrTooLong.Error()) {
			t.Fatalf("got %d results ending %+v, want one click then a non-malformed %v", len(got), last, bufio.ErrTooLong)
		}
	})

	// Failing readers: lines read before the failure come out, then the
	// error, as the oracle gives them. The timeout strikes mid-log, on
	// the second read, so the last line before it is cut short.
	var big strings.Builder
	for i := 0; big.Len() < 3*readBlock; i++ {
		fmt.Fprintf(&big, "search\t%d\t%d\thttp://www.yelp.example.com/biz/place-%d\n", i, i%365, i)
	}
	for _, c := range []struct {
		name string
		r    func() io.Reader
		want error
	}{
		{"DataErrReader", func() io.Reader { return iotest.DataErrReader(strings.NewReader(big.String())) }, nil},
		{"TimeoutReader", func() io.Reader { return iotest.TimeoutReader(strings.NewReader(big.String())) }, iotest.ErrTimeout},
		{"stalled reader", func() io.Reader { return io.MultiReader(strings.NewReader(big.String()), stalledReader{}) }, io.ErrNoProgress},
		{"bad read count", func() io.Reader { return io.MultiReader(strings.NewReader(big.String()), badCountReader{}) }, bufio.ErrBadReadCount},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(c.r())
			got := drain(t, r.Next, 1<<14)
			sameOutcomes(t, "oracle", drain(t, newOracleReader(c.r()).Next, 1<<14), got)
			_, err := r.Next()
			if c.want == nil && err != io.EOF || c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("after %d results Next = %v, want %v", len(got), err, c.want)
			}
		})
	}
}

// TestWriterWriteZeroAlloc pins Write at zero allocations, across
// buffer flushes (each run writes several buffers' worth) and with a
// URL longer than the spill scratch starts out.
func TestWriterWriteZeroAlloc(t *testing.T) {
	clicks := make([]Click, 3000)
	for i := range clicks {
		clicks[i] = Click{Source: Browse, Cookie: uint64(i) << 40, Day: i % 365,
			URL: "http://www.yelp.example.com/biz/golden-kitchen-springfield-" + strings.Repeat("x", i%7)}
	}
	clicks[1500].URL = "http://x/" + strings.Repeat("y", 1000)
	w := NewWriter(io.Discard)
	if n := testing.AllocsPerRun(20, func() {
		for _, c := range clicks {
			if err := w.Write(c); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("Write allocates %v per %d clicks, want 0", n, len(clicks))
	}
}

// TestReaderNextAllocs bounds Reader's allocations: one string per
// ~64 KiB block, so well under one per 256 lines of a click log.
func TestReaderNextAllocs(t *testing.T) {
	const lines = 100_000
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < lines; i++ {
		if err := w.Write(Click{Source: Search, Cookie: uint64(i) * 2654435761, Day: i % 365,
			URL: fmt.Sprintf("http://www.yelp.example.com/biz/place-%d", i%5000)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(data))
	n := 0
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	runtime.ReadMemStats(&after)
	if n != lines {
		t.Fatalf("read %d clicks, want %d", n, lines)
	}
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d lines, %d bytes: %d allocations", lines, len(data), mallocs)
	if mallocs >= lines/256 {
		t.Fatalf("reading %d lines (%d bytes) made %d allocations, want < %d", lines, len(data), mallocs, lines/256)
	}
}

// stalledReader never makes progress: every Read returns 0, nil.
type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { return 0, nil }

// badCountReader claims to have read more bytes than it was given.
type badCountReader struct{}

func (badCountReader) Read(p []byte) (int, error) { return len(p) + 1, nil }

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, iotest.ErrTimeout }

func TestWriterReportsWriteErrors(t *testing.T) {
	w := NewWriter(failWriter{})
	c := Click{Source: Search, Cookie: 1, Day: 2, URL: "http://x/" + strings.Repeat("a", 1<<16)}
	if err := w.Write(c); !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("Write past the buffer = %v, want the writer's error", err)
	}
	if err := NewWriter(failWriter{}).Write(Click{Source: Browse}); err != nil {
		t.Fatalf("buffered Write = %v, want nil until the flush", err)
	}
	w = NewWriter(failWriter{})
	_ = w.Write(Click{Source: Browse})
	if err := w.Flush(); !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("Flush = %v, want the writer's error", err)
	}
}
