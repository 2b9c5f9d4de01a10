// Package htmlx is a small, dependency-free streaming HTML visitor used
// by the extraction pipeline to pull text content and anchor hrefs out of
// crawled pages. It implements the subset of HTML5 parsing the study
// needs: tags with quoted/unquoted attributes, character-reference
// decoding, raw-text elements (script/style), void elements, and comment
// skipping. It is tolerant of malformed markup — real crawls are dirty —
// and never fails on bad input. A tokenizer and DOM (NewTokenizer,
// Parse) live in the package's tests as the visitor's oracle.
package htmlx

import "bytes"

// Streamer is a reusable streaming HTML visitor: it walks a document
// with exactly the scanning rules of the oracle's NewTokenizer + Parse
// but never constructs tokens, Node trees, or joined text strings. A
// Streamer holds only reusable scratch buffers, so steady-state
// streaming of page after page performs zero allocations.
//
// A Streamer is not safe for concurrent use; give each goroutine its
// own (the zero value is ready).
type Streamer struct {
	textScratch []byte
	attrScratch []byte
	stack       []span // open elements, as tag-name spans into src
}

// span is a half-open byte range into the document being streamed.
type span struct{ lo, hi int }

// Stream walks src, invoking onText for every text run the DOM path
// would place outside script/style subtrees (entity-decoded, in
// document order) and onAnchor for the first href attribute value of
// every <a> element (entity-decoded, verbatim — not trimmed or
// filtered, mirroring the DOM attribute value). Either callback may be
// nil. The byte slices passed to the callbacks are only valid for the
// duration of the call: they may alias src or a scratch buffer that is
// overwritten by the next run. The end of each text run is found with
// bytes.IndexByte for the next '<', so text is never walked byte by
// byte here; runs without '&' reach onText as subslices of src.
//
// Equivalence with the retained-DOM path is pinned by
// FuzzStreamVsParse: joining the onText runs with single spaces and
// collapsing whitespace yields Parse(src).Text(), and the trimmed
// non-empty onAnchor values are exactly Parse(src).Anchors().
//
//repro:noalloc
func (st *Streamer) Stream(src []byte, onText, onAnchor func([]byte)) {
	st.stack = st.stack[:0]
	rawDepth := 0 // open script/style elements on the stack
	pos := 0
	for pos < len(src) {
		if src[pos] == '<' {
			if np, handled := st.markup(src, pos, &rawDepth, onAnchor); handled {
				pos = np
				continue
			}
		}
		// Text run: mirrors Tokenizer.text — a stray '<' that opened no
		// construct is consumed as part of the run.
		start := pos
		if src[pos] == '<' {
			pos++
		}
		if i := bytes.IndexByte(src[pos:], '<'); i >= 0 {
			pos += i
		} else {
			pos = len(src)
		}
		if rawDepth == 0 && onText != nil {
			run := src[start:pos]
			if bytes.IndexByte(run, '&') < 0 {
				onText(run)
			} else {
				st.textScratch = AppendDecoded(st.textScratch[:0], run)
				onText(st.textScratch)
			}
		}
	}
}

// markup handles a '<' construct at pos. It returns the new position
// and whether the construct was consumed; handled=false means the '<'
// opens nothing and belongs to a text run, exactly like Tokenizer.tag.
func (st *Streamer) markup(src []byte, pos int, rawDepth *int, onAnchor func([]byte)) (int, bool) {
	if pos+1 >= len(src) {
		return 0, false
	}
	switch c := src[pos+1]; {
	case c == '!':
		rest := src[pos:]
		if len(rest) >= 4 && rest[2] == '-' && rest[3] == '-' {
			end := bytes.Index(rest[4:], []byte("-->"))
			if end < 0 {
				return len(src), true
			}
			return pos + 4 + end + 3, true
		}
		end := bytes.IndexByte(rest, '>')
		if end < 0 {
			return len(src), true
		}
		return pos + end + 1, true
	case c == '/':
		return st.endTag(src, pos, rawDepth), true
	case isTagNameStart(c):
		return st.startTag(src, pos, rawDepth, onAnchor), true
	default:
		return 0, false
	}
}

// endTag consumes an end tag and replays Parse's pop rule: pop to the
// topmost matching open element if one exists, otherwise ignore.
func (st *Streamer) endTag(src []byte, pos int, rawDepth *int) int {
	p := pos + 2
	start := p
	for p < len(src) && src[p] != '>' {
		p++
	}
	name := bytes.TrimSpace(src[start:p])
	if p < len(src) {
		p++ // consume '>'
	}
	// Tolerate attributes on end tags by truncating at the first
	// space or slash (mirrors Tokenizer.endTag).
	for i := 0; i < len(name); i++ {
		if c := name[i]; c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '/' {
			name = name[:i]
			break
		}
	}
	for i := len(st.stack) - 1; i >= 0; i-- {
		open := src[st.stack[i].lo:st.stack[i].hi]
		if asciiFoldEq(open, name) {
			for j := i; j < len(st.stack); j++ {
				if isRawSpan(src, st.stack[j]) {
					*rawDepth--
				}
			}
			st.stack = st.stack[:i]
			break
		}
	}
	return p
}

// startTag consumes a start tag with full attribute scanning (quoted
// values may contain '>'), reports the first href of <a> elements, and
// maintains the open-element stack and raw-text skipping.
func (st *Streamer) startTag(src []byte, pos int, rawDepth *int, onAnchor func([]byte)) int {
	p := pos + 1
	nameLo := p
	for p < len(src) && !isSpace(src[p]) && src[p] != '>' && src[p] != '/' {
		p++
	}
	name := span{nameLo, p}
	isA := p-nameLo == 1 && (src[nameLo] == 'a' || src[nameLo] == 'A')
	selfClosing := false
	hrefVal := span{-1, -1}
	hrefSet := false
	for p < len(src) && src[p] != '>' {
		if src[p] == '/' && p+1 < len(src) && src[p+1] == '>' {
			selfClosing = true
			p++
			break
		}
		if isSpace(src[p]) {
			p++
			continue
		}
		key, val, ok, np := scanAttr(src, p)
		p = np
		if ok && isA && !hrefSet && asciiFoldEq(src[key.lo:key.hi], "href") {
			hrefVal = val
			hrefSet = true
		}
	}
	if p < len(src) {
		p++ // consume '>'
	}
	if hrefSet && onAnchor != nil {
		raw := src[hrefVal.lo:hrefVal.hi]
		if bytes.IndexByte(raw, '&') < 0 {
			onAnchor(raw)
		} else {
			st.attrScratch = AppendDecoded(st.attrScratch[:0], raw)
			onAnchor(st.attrScratch)
		}
	}
	switch {
	case selfClosing || isVoidSpan(src, name):
		// no push: SelfClosingToken in the DOM path
	case isRawSpan(src, name):
		st.stack = append(st.stack, name)
		*rawDepth++
		// Raw content swallows everything up to the literal closing tag;
		// it is a child of the raw element and never surfaces as text.
		tag := "style"
		if asciiFoldEq(src[name.lo:name.hi], "script") {
			tag = "script"
		}
		if idx := indexCloseTagFold(src, p, tag); idx < 0 {
			p = len(src)
		} else {
			p = idx
		}
	default:
		st.stack = append(st.stack, name)
	}
	return p
}

// scanAttr replays Tokenizer.attr on spans: it parses one attribute at
// p, returning key and value spans, whether an attribute was found, and
// the new position. Junk bytes advance by one with ok=false.
func scanAttr(src []byte, p int) (key, val span, ok bool, np int) {
	start := p
	for p < len(src) {
		c := src[p]
		if isSpace(c) || c == '=' || c == '>' || c == '/' {
			break
		}
		p++
	}
	key = span{start, p}
	if key.hi == key.lo {
		p++ // skip junk byte to guarantee progress
		return key, span{p, p}, false, p
	}
	for p < len(src) && isSpace(src[p]) {
		p++
	}
	if p >= len(src) || src[p] != '=' {
		return key, span{p, p}, true, p // boolean attribute
	}
	p++ // consume '='
	for p < len(src) && isSpace(src[p]) {
		p++
	}
	if p >= len(src) {
		return key, span{p, p}, true, p
	}
	switch q := src[p]; q {
	case '"', '\'':
		p++
		vstart := p
		for p < len(src) && src[p] != q {
			p++
		}
		val = span{vstart, p}
		if p < len(src) {
			p++ // consume closing quote
		}
	default:
		vstart := p
		for p < len(src) && !isSpace(src[p]) && src[p] != '>' {
			p++
		}
		val = span{vstart, p}
	}
	return key, val, true, p
}

// isVoidSpan reports whether the tag name span is a void element, one
// that never has a closing tag or children. It lower-cases the short
// span into a stack buffer and switches on it, with no map probe; the
// oracle tokenizer keeps the same set as a map (voidElements), and
// FuzzStreamVsParse holds the two equal.
func isVoidSpan(src []byte, s span) bool {
	n := s.hi - s.lo
	if n < 2 || n > 6 { // "br" through "source"
		return false
	}
	var buf [6]byte
	for i := 0; i < n; i++ {
		c := src[s.lo+i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	switch string(buf[:n]) {
	case "area", "base", "br", "col", "embed", "hr", "img", "input",
		"link", "meta", "param", "source", "track", "wbr":
		return true
	}
	return false
}

// isRawSpan reports whether the tag name span is script or style.
func isRawSpan(src []byte, s span) bool {
	return asciiFoldEq(src[s.lo:s.hi], "script") || asciiFoldEq(src[s.lo:s.hi], "style")
}

// indexCloseTagFold returns the absolute index of the first "</"+tag at
// or after pos in src, matching the tag bytes ASCII-case-insensitively,
// or -1. Shared by the streaming visitor and the test oracle's
// tokenizer so both skip raw content identically.
func indexCloseTagFold(src []byte, pos int, tag string) int {
	n := 2 + len(tag)
	for i := pos; i+n <= len(src); i++ {
		if src[i] == '<' && src[i+1] == '/' && asciiFoldEq(src[i+2:i+n], tag) {
			return i
		}
	}
	return -1
}

// asciiFoldEq reports whether b equals s under ASCII case folding.
// Generic over the second operand so the visitor (byte spans) and the
// oracle tokenizer (string names) share one fold implementation.
func asciiFoldEq[T ~string | ~[]byte](b []byte, s T) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c, d := b[i], s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if d >= 'A' && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// isTagNameStart reports whether c can open a start tag after '<'.
func isTagNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// isSpace reports HTML whitespace inside tags.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}
