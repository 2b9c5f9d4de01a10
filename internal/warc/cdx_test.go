package warc

import (
	"bytes"
	"reflect"
	"testing"
)

func TestHostOf(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://www.yelp.example.com/biz/x", "www.yelp.example.com"},
		{"https://A.B.COM/", "a.b.com"},
		{"http://a.com:8080/path", "a.com"},
		{"http://a.com?q=1", "a.com"},
		{"http://a.com#frag", "a.com"},
		{"not a url", ""},
		{"", ""},
	}
	for _, c := range cases {
		if got := HostOf(c.in); got != c.want {
			t.Errorf("HostOf(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCDXRoundTrip(t *testing.T) {
	c := &CDX{}
	c.Add(CDXEntry{URI: "http://a.com/1", Host: "a.com", Offset: 0, Length: 100})
	c.Add(CDXEntry{URI: "http://b.com/2", Host: "b.com", Offset: 100, Length: 250})
	c.Add(CDXEntry{URI: "http://a.com/3", Host: "a.com", Offset: 350, Length: 50})

	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const want = "http://a.com/1\ta.com\t0\t100\n" +
		"http://b.com/2\tb.com\t100\t250\n" +
		"http://a.com/3\ta.com\t350\t50\n"
	if buf.String() != want || n != int64(len(want)) {
		t.Errorf("WriteTo wrote %d bytes %q, want %d bytes %q", n, buf.String(), len(want), want)
	}
}

func TestCDXHostsSorted(t *testing.T) {
	c := &CDX{}
	for _, h := range []string{"z.com", "a.com", "m.com", "a.com"} {
		c.Add(CDXEntry{Host: h})
	}
	if got := c.Hosts(); !reflect.DeepEqual(got, []string{"a.com", "m.com", "z.com"}) {
		t.Errorf("Hosts = %v", got)
	}
}

func TestCDXAgainstWriter(t *testing.T) {
	// Index entries produced from writer offsets must let a reader pull
	// the right record out of the middle of a gzipped WARC.
	var warcBuf bytes.Buffer
	w := NewWriter(&warcBuf, true, testDate)
	c := &CDX{}
	uris := []string{"http://one.example.com/a", "http://two.example.com/b", "http://one.example.com/c"}
	for _, uri := range uris {
		off, n, err := w.WriteResponse(uri, []byte("<html>"+uri+"</html>"))
		if err != nil {
			t.Fatal(err)
		}
		c.Add(CDXEntry{URI: uri, Host: HostOf(uri), Offset: off, Length: n})
	}
	e := c.Entries[1]
	r, err := NewReader(bytes.NewReader(warcBuf.Bytes()[e.Offset : e.Offset+e.Length]))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.TargetURI() != uris[1] {
		t.Errorf("fetched %q, want %q", rec.TargetURI(), uris[1])
	}
}
