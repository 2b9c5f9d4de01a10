package htmlx

// The tokenizer behind the DOM test oracle (dom_oracle_test.go): the
// token-at-a-time form of the scanning rules Streamer walks in one pass.

import (
	"bytes"
	"strings"
)

// TokenType identifies the kind of a Token.
type TokenType int

// Token kinds.
const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingToken
	CommentToken
	DoctypeToken
)

// String names the token type for diagnostics.
func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "Text"
	case StartTagToken:
		return "StartTag"
	case EndTagToken:
		return "EndTag"
	case SelfClosingToken:
		return "SelfClosing"
	case CommentToken:
		return "Comment"
	case DoctypeToken:
		return "Doctype"
	default:
		return "Unknown"
	}
}

// Attr is one tag attribute. Values are entity-decoded.
type Attr struct {
	Key string
	Val string
}

// Token is one lexical unit of an HTML document. Text tokens carry
// entity-decoded text in Data; tag tokens carry the lower-cased tag name
// in Data and attributes in Attrs.
type Token struct {
	Type  TokenType
	Data  string
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it exists.
func (t *Token) Attr(key string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// voidElements never have closing tags or children.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// rawTextElements contain raw character data until their literal
// closing tag (we treat title/textarea as raw too, which is RCDATA in
// the spec; character references inside them still decode).
var rawTextElements = map[string]bool{
	"script": true, "style": true,
}

// Tokenizer scans an HTML document into Tokens.
type Tokenizer struct {
	src []byte
	pos int
	// pending raw-text element whose content should be swallowed as one
	// text token, e.g. after <script>.
	rawTag string
}

// NewTokenizer returns a tokenizer over src. The tokenizer does not
// retain ownership: src must not be mutated while tokenizing.
func NewTokenizer(src []byte) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token, or ok=false at end of input.
func (z *Tokenizer) Next() (Token, bool) {
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.rawTag != "" {
		return z.rawText(), true
	}
	if z.src[z.pos] == '<' {
		if tok, ok := z.tag(); ok {
			return tok, true
		}
		// Lone '<' that opens no tag: emit as text.
	}
	return z.text(), true
}

// text consumes character data up to the next '<'.
func (z *Tokenizer) text() Token {
	start := z.pos
	if z.src[z.pos] == '<' {
		z.pos++ // consume the stray '<'
	}
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TextToken, Data: DecodeEntities(string(z.src[start:z.pos]))}
}

// rawText consumes content until the closing tag of the pending raw
// element (ASCII-case-insensitive), emitting it as a single text token.
// The closing tag itself is left for the next call.
func (z *Tokenizer) rawText() Token {
	tag := z.rawTag
	z.rawTag = ""
	start := z.pos
	idx := indexCloseTagFold(z.src, z.pos, tag)
	if idx < 0 {
		z.pos = len(z.src)
	} else {
		z.pos = idx
	}
	return Token{Type: TextToken, Data: string(z.src[start:z.pos])}
}

// lowerASCII lower-cases the ASCII letters of s, leaving all other
// bytes (including multi-byte runes) untouched — the HTML5 rule for
// tag and attribute names. Allocates only when an upper-case ASCII
// letter is present.
func lowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				if b[j] >= 'A' && b[j] <= 'Z' {
					b[j] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}

// tag parses a markup construct starting at '<'. Returns ok=false if the
// '<' does not open a well-formed construct.
func (z *Tokenizer) tag() (Token, bool) {
	if z.pos+1 >= len(z.src) {
		return Token{}, false
	}
	switch c := z.src[z.pos+1]; {
	case c == '!':
		return z.bangTag(), true
	case c == '/':
		return z.endTag(), true
	case isTagNameStart(c):
		return z.startTag(), true
	default:
		return Token{}, false
	}
}

// bangTag handles comments, doctype and CDATA-ish constructs.
func (z *Tokenizer) bangTag() Token {
	rest := z.src[z.pos:]
	if len(rest) >= 4 && string(rest[:4]) == "<!--" {
		end := bytes.Index(rest[4:], []byte("-->"))
		var data string
		if end < 0 {
			data = string(rest[4:])
			z.pos = len(z.src)
		} else {
			data = string(rest[4 : 4+end])
			z.pos += 4 + end + 3
		}
		return Token{Type: CommentToken, Data: data}
	}
	// <!DOCTYPE ...> or other declaration: swallow to '>'.
	end := bytes.IndexByte(rest, '>')
	var data string
	if end < 0 {
		data = string(rest[2:])
		z.pos = len(z.src)
	} else {
		data = string(rest[2:end])
		z.pos += end + 1
	}
	return Token{Type: DoctypeToken, Data: strings.TrimSpace(data)}
}

func (z *Tokenizer) endTag() Token {
	z.pos += 2 // consume "</"
	start := z.pos
	for z.pos < len(z.src) && z.src[z.pos] != '>' {
		z.pos++
	}
	name := lowerASCII(strings.TrimSpace(string(z.src[start:z.pos])))
	if z.pos < len(z.src) {
		z.pos++ // consume '>'
	}
	// Tolerate attributes on end tags by truncating at first space.
	if i := strings.IndexAny(name, " \t\n\r\f/"); i >= 0 {
		name = name[:i]
	}
	return Token{Type: EndTagToken, Data: name}
}

func (z *Tokenizer) startTag() Token {
	z.pos++ // consume '<'
	start := z.pos
	for z.pos < len(z.src) && !isSpace(z.src[z.pos]) && z.src[z.pos] != '>' && z.src[z.pos] != '/' {
		z.pos++
	}
	name := lowerASCII(string(z.src[start:z.pos]))
	tok := Token{Type: StartTagToken, Data: name}
	selfClosing := false
	for z.pos < len(z.src) && z.src[z.pos] != '>' {
		if z.src[z.pos] == '/' && z.pos+1 < len(z.src) && z.src[z.pos+1] == '>' {
			selfClosing = true
			z.pos++
			break
		}
		if isSpace(z.src[z.pos]) {
			z.pos++
			continue
		}
		if key, val, ok := z.attr(); ok {
			tok.Attrs = append(tok.Attrs, Attr{Key: key, Val: val})
		}
	}
	if z.pos < len(z.src) {
		z.pos++ // consume '>'
	}
	if selfClosing || voidElements[name] {
		tok.Type = SelfClosingToken
	} else if rawTextElements[name] {
		z.rawTag = name
	}
	return tok
}

// attr parses one attribute at the current position. It returns ok=false
// if no attribute could be parsed (position still advances past junk).
func (z *Tokenizer) attr() (key, val string, ok bool) {
	start := z.pos
	for z.pos < len(z.src) {
		c := z.src[z.pos]
		if isSpace(c) || c == '=' || c == '>' || c == '/' {
			break
		}
		z.pos++
	}
	key = lowerASCII(string(z.src[start:z.pos]))
	if key == "" {
		z.pos++ // skip junk byte to guarantee progress
		return "", "", false
	}
	// Optional whitespace before '='.
	for z.pos < len(z.src) && isSpace(z.src[z.pos]) {
		z.pos++
	}
	if z.pos >= len(z.src) || z.src[z.pos] != '=' {
		return key, "", true // boolean attribute
	}
	z.pos++ // consume '='
	for z.pos < len(z.src) && isSpace(z.src[z.pos]) {
		z.pos++
	}
	if z.pos >= len(z.src) {
		return key, "", true
	}
	switch q := z.src[z.pos]; q {
	case '"', '\'':
		z.pos++
		vstart := z.pos
		for z.pos < len(z.src) && z.src[z.pos] != q {
			z.pos++
		}
		val = string(z.src[vstart:z.pos])
		if z.pos < len(z.src) {
			z.pos++ // consume closing quote
		}
	default:
		vstart := z.pos
		for z.pos < len(z.src) && !isSpace(z.src[z.pos]) && z.src[z.pos] != '>' {
			z.pos++
		}
		val = string(z.src[vstart:z.pos])
	}
	return key, DecodeEntities(val), true
}
