package htmlx

import (
	"bytes"
	"unicode/utf8"
)

// namedEntities covers the character references that appear in practice
// on directory-style pages; unknown references pass through verbatim.
var namedEntities = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": '\x20', "copy": '©', "reg": '®', "trade": '™',
	"mdash": '—', "ndash": '–', "hellip": '…', "middot": '·',
	"laquo": '«', "raquo": '»', "ldquo": '“', "rdquo": '”',
	"lsquo": '‘', "rsquo": '’', "bull": '•', "deg": '°',
	"frac12": '½', "times": '×', "divide": '÷', "eacute": 'é',
	"egrave": 'è', "agrave": 'à', "ccedil": 'ç', "uuml": 'ü',
	"ouml": 'ö', "auml": 'ä', "ntilde": 'ñ', "szlig": 'ß',
}

// AppendDecoded appends src to dst with HTML character references
// decoded, by the same rules as the tests' DecodeEntities. It is the
// allocation-free building block of the streaming visitor: dst is
// typically a reused scratch buffer.
func AppendDecoded(dst, src []byte) []byte {
	for i := 0; i < len(src); {
		c := src[i]
		if c != '&' {
			dst = append(dst, c)
			i++
			continue
		}
		r, width, ok := decodeOneEntity(src[i:])
		if !ok {
			dst = append(dst, '&')
			i++
			continue
		}
		dst = utf8.AppendRune(dst, r)
		i += width
	}
	return dst
}

// decodeOneEntity decodes a reference at the start of s (which begins
// with '&'). It returns the rune, the number of bytes consumed, and
// whether decoding succeeded. Generic so the string (tokenizer) and
// []byte (streaming) paths share one implementation and cannot drift.
func decodeOneEntity[T ~string | ~[]byte](s T) (rune, int, bool) {
	if len(s) < 3 { // shortest is &x;
		return 0, 0, false
	}
	end := -1
	for i := 1; i < min(len(s), 32); i++ {
		if s[i] == ';' {
			end = i
			break
		}
	}
	if end < 2 {
		return 0, 0, false
	}
	body := s[1:end]
	if body[0] == '#' {
		num := body[1:]
		base := int64(10)
		if len(num) > 1 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		v, ok := parseEntityNum(num, base)
		if !ok || v <= 0 || v > utf8.MaxRune {
			return 0, 0, false
		}
		return rune(v), end + 1, true
	}
	if r, ok := namedEntities[string(body)]; ok {
		return r, end + 1, true
	}
	return 0, 0, false
}

// parseEntityNum parses a numeric character-reference body with the
// same accept/reject behavior as strconv.ParseInt(num, base, 32): an
// optional sign, digits of the base, and a value within int32 range.
// Hand-rolled so the []byte path never converts to string.
func parseEntityNum[T ~string | ~[]byte](num T, base int64) (int64, bool) {
	if len(num) == 0 {
		return 0, false
	}
	i := 0
	neg := false
	switch num[0] {
	case '+':
		i++
	case '-':
		neg = true
		i++
	}
	if i == len(num) {
		return 0, false
	}
	var v int64
	for ; i < len(num); i++ {
		var d int64
		switch c := num[i]; {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, false
		}
		v = v*base + d
		if v > 1<<31 { // past int32 range either sign: ParseInt errors
			return 0, false
		}
	}
	if neg {
		v = -v
	} else if v == 1<<31 {
		return 0, false // 2^31 overflows int32 only when positive
	}
	return v, true
}

// escapeIndex maps each byte to its entry in escapes, or 0 when the
// byte is written as is. It is the package's only escaping decision:
// the five HTML-significant bytes are escaped, nothing else is.
var escapeIndex = [256]uint8{'&': 1, '<': 2, '>': 3, '"': 4, '\'': 5}

// escapes holds the replacement text for each escapeIndex entry.
var escapes = [...]string{1: "&amp;", 2: "&lt;", 3: "&gt;", 4: "&quot;", 5: "&#39;"}

// WriteEscaped writes s to b with the five significant HTML characters
// escaped, for safe embedding as element text or attribute values. It
// walks s once and writes each clean run between escapes with one
// WriteString — the streaming renderer's zero-allocation escape path.
func WriteEscaped(b *bytes.Buffer, s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		if e := escapeIndex[s[i]]; e != 0 {
			b.WriteString(s[last:i])
			b.WriteString(escapes[e])
			last = i + 1
		}
	}
	b.WriteString(s[last:])
}

// EscapeWriter adapts a bytes.Buffer into a text sink that escapes
// everything written through it. It satisfies textgen's writer interface
// so prose generators can stream straight into a rendered page.
type EscapeWriter struct {
	B *bytes.Buffer
}

// WriteString writes s escaped. The returned length is len(s) (the
// logical, pre-escape length), mirroring io conventions loosely.
func (w EscapeWriter) WriteString(s string) (int, error) {
	WriteEscaped(w.B, s)
	return len(s), nil
}

// WriteByte writes one byte, escaped if significant.
func (w EscapeWriter) WriteByte(c byte) error {
	if e := escapeIndex[c]; e != 0 {
		w.B.WriteString(escapes[e])
		return nil
	}
	return w.B.WriteByte(c)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
