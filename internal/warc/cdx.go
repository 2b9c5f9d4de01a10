package warc

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CDXEntry is one line of a CDX-style capture index: enough to locate a
// record in a WARC file by byte offset and to group captures by host.
type CDXEntry struct {
	URI    string
	Host   string
	Offset int64
	Length int64
}

// CDX is an in-memory capture index for one or more WARC files.
type CDX struct {
	Entries []CDXEntry
}

// Add appends one entry.
func (c *CDX) Add(e CDXEntry) { c.Entries = append(c.Entries, e) }

// Hosts returns the distinct hosts in the index, sorted.
func (c *CDX) Hosts() []string {
	seen := make(map[string]struct{})
	for _, e := range c.Entries {
		seen[e.Host] = struct{}{}
	}
	hosts := make([]string, 0, len(seen))
	for h := range seen {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// WriteTo serializes the index as tab-separated lines
// (uri, host, offset, length), returning bytes written.
func (c *CDX) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, e := range c.Entries {
		written, err := fmt.Fprintf(bw, "%s\t%s\t%d\t%d\n", e.URI, e.Host, e.Offset, e.Length)
		n += int64(written)
		if err != nil {
			return n, fmt.Errorf("warc: write cdx: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("warc: flush cdx: %w", err)
	}
	return n, nil
}

// HostOf extracts the lower-cased host from an absolute URL, dropping
// any port. It returns "" for unparsable input.
func HostOf(uri string) string {
	s := uri
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	} else {
		return ""
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}
