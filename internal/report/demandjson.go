package report

import (
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/demand"
	"repro/internal/logs"
)

// The fixed text of the indented demand document around its strings
// and numbers, in the layout json.MarshalIndent(..., "", "  ") gives a
// DemandWire (Estimate has no json tags, so its keys are the Go field
// names).
const (
	demandHead      = "{\n  \"site\": "
	demandSources   = ",\n  \"sources\": "
	demandKey       = "\n    "
	demandKeyColon  = ": "
	demandEstOpen   = "\n      {\n        \"Visits\": "
	demandEstMid    = ",\n        \"UniqueCookies\": "
	demandEstClose  = "\n      }"
	demandListClose = "\n    ]"
	demandMapClose  = "\n  }"
	demandTail      = "\n}"
)

// DemandJSON returns the GET /v1/demand/{site} body: byte for byte
// json.MarshalIndent(NewDemandWire(site, ests), "", "  "), that is
// sorted source keys, null for a nil slice, [] for an empty one and
// encoding/json's HTML-safe string quoting. It is appended with strconv,
// without reflection, into one slice of exactly the body's length: the
// serve tier stores the slice, so it carries no spare capacity.
// MarshalIndent stays the oracle (TestDemandJSONMatchesMarshalIndent,
// FuzzDemandJSON).
func DemandJSON(site logs.Site, ests map[logs.Source][]demand.Estimate) []byte {
	keys := make([]string, 0, len(ests))
	for src := range ests {
		keys = append(keys, string(src))
	}
	slices.Sort(keys) // encoding/json's map key order: bytewise on the key string

	n := len(demandHead) + quotedLen(string(site)) + len(demandSources) + 2 + len(demandTail)
	if len(keys) > 0 {
		n += len(demandMapClose) - 1
	}
	for i, k := range keys {
		if i > 0 {
			n++
		}
		n += len(demandKey) + quotedLen(k) + len(demandKeyColon)
		e := ests[logs.Source(k)]
		if e == nil {
			n += len("null")
			continue
		}
		n += 2
		if len(e) > 0 {
			n += len(demandListClose) - 1
		}
		for j, est := range e {
			if j > 0 {
				n++
			}
			n += len(demandEstOpen) + decLen(est.Visits) + len(demandEstMid) + decLen(est.UniqueCookies) + len(demandEstClose)
		}
	}

	b := make([]byte, 0, n)
	b = append(b, demandHead...)
	b = appendQuoted(b, string(site))
	b = append(b, demandSources...)
	if len(keys) == 0 {
		b = append(b, "{}"...)
	} else {
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, demandKey...)
			b = appendQuoted(b, k)
			b = append(b, demandKeyColon...)
			b = appendEstimates(b, ests[logs.Source(k)])
		}
		b = append(b, demandMapClose...)
	}
	return append(b, demandTail...)
}

// appendEstimates appends one source's estimate list at the document's
// third indent level.
func appendEstimates(b []byte, e []demand.Estimate) []byte {
	switch {
	case e == nil:
		return append(b, "null"...)
	case len(e) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for j, est := range e {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, demandEstOpen...)
		b = strconv.AppendInt(b, int64(est.Visits), 10)
		b = append(b, demandEstMid...)
		b = strconv.AppendInt(b, int64(est.UniqueCookies), 10)
		b = append(b, demandEstClose...)
	}
	return append(b, demandListClose...)
}

// decLen is the length of strconv.Itoa(v).
func decLen(v int) int {
	n := 1
	u := uint64(v)
	if v < 0 {
		n++
		u = -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// quotedLen is the length of appendQuoted(nil, s). Site and source
// names are short, so the scratch stays on the stack.
func quotedLen(s string) int {
	var tmp [64]byte
	return len(appendQuoted(tmp[:0], s))
}

// appendQuoted appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on (its default): '"' and '\\'
// backslash-escaped, \b \f \n \r \t by name, other control bytes and
// '<', '>', '&' as \u00XX, each invalid UTF-8 byte as \ufffd, and
// U+2028 and U+2029 as \u2028 and \u2029.
func appendQuoted(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
