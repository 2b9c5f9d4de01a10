package extract

// The §3.2 phone and ISBN extractors as one hand-written scanner over
// a page's collapsed text. The grammar is the one the regular
// expressions of the test oracle state (phone_oracle_test.go,
// isbn_oracle_test.go), and the scanner reproduces their match
// semantics exactly: leftmost-first, non-overlapping FindAll, ASCII
// word boundaries. FuzzScanVsRegex pins the equivalence.
//
// Phones (phoneRe, then barePhoneRe, merged by start position):
//
//	(?:\+?1[-. ]?)?(?:\(([2-9][0-9]{2})\)[-. ]?|([2-9][0-9]{2})[-. ])([2-9][0-9]{2})[-. ]([0-9]{4})\b
//	\b([2-9][0-9]{2})([2-9][0-9]{2})([0-9]{4})\b
//
// ISBN candidates:
//
//	\b(?:97[89][- ]?)?[0-9](?:[- ]?[0-9]){8}[- ]?[0-9Xx]\b
//
// Every optional separator in both grammars is followed by a digit (or
// by '(' after the "+1" prefix), and no separator is one, so at a given
// start each separator choice is forced: the greedy path and the
// backtracking path cannot both match. The only real alternative is
// the ISBN-13 "97[89]" prefix, tried before the bare ten-character
// form, as the regex's greedy `?` does. A phoneRe match contains no
// run of more than four digits, so no two phone matches, one from each
// expression, can start at the same byte.

// isbnWindow is how many bytes around a candidate are searched for the
// literal string "ISBN" (§3.2: "along with the string 'ISBN' in a small
// window near the match").
const isbnWindow = 48

// Byte classes.
const (
	clsDigit   = 1 << iota // 0-9
	clsWord                // \w: [0-9A-Za-z_]
	clsStart               // a phone or ISBN match can begin here: '+', '(', 0-9
	clsPlain               // ASCII and not whitespace (appendCollapsed runs)
	clsPhoneSp             // phone separator: '-', '.', ' '
)

var byteClass = func() (t [256]uint8) {
	for c := 0; c < 0x80; c++ {
		switch c {
		case ' ', '\t', '\n', '\v', '\f', '\r':
		default:
			t[c] |= clsPlain
		}
	}
	for c := '0'; c <= '9'; c++ {
		t[c] |= clsDigit | clsWord | clsStart
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= clsWord
		t[c-'a'+'A'] |= clsWord
	}
	t['_'] |= clsWord
	t['+'] |= clsStart
	t['('] |= clsStart
	t['-'] |= clsPhoneSp
	t['.'] |= clsPhoneSp
	t[' '] |= clsPhoneSp
	return t
}()

func isDigit(c byte) bool { return byteClass[c]&clsDigit != 0 }

// boundaryAfter reports whether a \b holds at i when t[i-1] is a word
// byte: i is the end of t or t[i] is not a word byte.
func boundaryAfter(t []byte, i int) bool {
	return i == len(t) || byteClass[t[i]]&clsWord == 0
}

// nanp3 reports whether t[p:p+3] is [2-9][0-9]{2}.
func nanp3(t []byte, p int) bool {
	return p+3 <= len(t) && t[p] >= '2' && t[p] <= '9' && isDigit(t[p+1]) && isDigit(t[p+2])
}

// phoneScan walks a text's phone matches in start order. The zero
// value starts at the beginning of the text.
type phoneScan struct {
	pos    int      // next start to try
	reNext int      // phoneRe's FindAll resumes here
	key    [10]byte // the last match's NANP digits
}

// next advances to the next phone match at or after sc.pos, leaving
// its ten digits in sc.key, and reports whether there was one.
//
//repro:noalloc
func (sc *phoneScan) next(t []byte) bool {
	for s := sc.pos; s < len(t); s++ {
		if byteClass[t[s]]&clsStart == 0 {
			continue
		}
		if s >= sc.reNext {
			if e := sc.reAt(t, s); e > 0 {
				sc.pos, sc.reNext = s+1, e
				return true
			}
		}
		if sc.bareAt(t, s) {
			sc.pos = s + 1
			return true
		}
	}
	sc.pos = len(t)
	return false
}

// reAt returns the end of phoneRe's match at s, or 0.
//
//repro:noalloc
func (sc *phoneScan) reAt(t []byte, s int) int {
	p := s
	if t[p] == '+' {
		if p+1 >= len(t) || t[p+1] != '1' {
			return 0
		}
		p++
	}
	if t[p] == '1' {
		p++
		if p < len(t) && byteClass[t[p]]&clsPhoneSp != 0 {
			p++
		}
	}
	area := p
	switch {
	case p < len(t) && t[p] == '(':
		if !nanp3(t, p+1) || p+4 >= len(t) || t[p+4] != ')' {
			return 0
		}
		area, p = p+1, p+5
		if p < len(t) && byteClass[t[p]]&clsPhoneSp != 0 {
			p++
		}
	case nanp3(t, p) && p+3 < len(t) && byteClass[t[p+3]]&clsPhoneSp != 0:
		p += 4
	default:
		return 0
	}
	if !nanp3(t, p) || p+8 > len(t) || byteClass[t[p+3]]&clsPhoneSp == 0 ||
		!isDigit(t[p+4]) || !isDigit(t[p+5]) || !isDigit(t[p+6]) || !isDigit(t[p+7]) ||
		!boundaryAfter(t, p+8) {
		return 0
	}
	copy(sc.key[:3], t[area:area+3])
	copy(sc.key[3:6], t[p:p+3])
	copy(sc.key[6:], t[p+4:p+8])
	return p + 8
}

// bareAt reports whether barePhoneRe matches at s.
//
//repro:noalloc
func (sc *phoneScan) bareAt(t []byte, s int) bool {
	if s > 0 && byteClass[t[s-1]]&clsWord != 0 || !nanp3(t, s) || !nanp3(t, s+3) || s+10 > len(t) {
		return false
	}
	for i := s + 6; i < s+10; i++ {
		if !isDigit(t[i]) {
			return false
		}
	}
	if !boundaryAfter(t, s+10) {
		return false
	}
	copy(sc.key[:], t[s:s+10])
	return true
}

// isbnScan walks a text's ISBN candidates (isbnCandidateRe's FindAll
// spans) in order. The zero value starts at the beginning of the text.
type isbnScan struct {
	pos int
	key [13]byte // the last candidate's digits, 'x' upper-cased
	n   int      // its length: 10 or 13
}

// next returns the span [lo, hi) of the next candidate at or after
// sc.pos and leaves its bare form in sc.key[:sc.n].
//
//repro:noalloc
func (sc *isbnScan) next(t []byte) (lo, hi int, ok bool) {
	for s := sc.pos; s < len(t); s++ {
		if !isDigit(t[s]) || s > 0 && byteClass[t[s-1]]&clsWord != 0 {
			continue
		}
		if s+3 <= len(t) && t[s] == '9' && t[s+1] == '7' && (t[s+2] == '8' || t[s+2] == '9') {
			p := s + 3
			if p < len(t) && (t[p] == '-' || t[p] == ' ') {
				p++
			}
			copy(sc.key[:3], t[s:s+3])
			if e := sc.core(t, p, 3); e > 0 {
				sc.pos, sc.n = e, 13
				return s, e, true
			}
		}
		if e := sc.core(t, s, 0); e > 0 {
			sc.pos, sc.n = e, 10
			return s, e, true
		}
	}
	sc.pos = len(t)
	return 0, 0, false
}

// core matches [0-9](?:[- ]?[0-9]){8}[- ]?[0-9Xx]\b at p, writing the
// ten characters to sc.key[k:], and returns the end or 0.
//
//repro:noalloc
func (sc *isbnScan) core(t []byte, p, k int) int {
	for i := 0; i < 10; i++ {
		if i > 0 && p < len(t) && (t[p] == '-' || t[p] == ' ') {
			p++
		}
		if p >= len(t) {
			return 0
		}
		c := t[p]
		if i == 9 && (c == 'x' || c == 'X') {
			c = 'X'
		} else if !isDigit(c) {
			return 0
		}
		sc.key[k+i] = c
		p++
	}
	if !boundaryAfter(t, p) {
		return 0
	}
	return p
}

// validISBN reports whether the bare key is a checksum-valid ISBN-10
// or ISBN-13 (the ValidISBN10/ValidISBN13 rules, inline on digits).
//
//repro:noalloc
func validISBN(k []byte) bool {
	sum := 0
	switch len(k) {
	case 10:
		for i := 0; i < 9; i++ {
			sum += int(k[i]-'0') * (10 - i)
		}
		r := (11 - sum%11) % 11
		if r == 10 {
			return k[9] == 'X'
		}
		return k[9] == byte('0'+r)
	case 13:
		for i := 0; i < 12; i++ {
			d := int(k[i] - '0')
			if i%2 == 1 {
				d *= 3
			}
			sum += d
		}
		return k[12] == byte('0'+(10-sum%10)%10)
	}
	return false
}

// markerNear reports whether "ISBN", in any ASCII case, lies wholly in
// t[lo-isbnWindow : hi+isbnWindow] (clamped to t): the §3.2 window rule.
//
//repro:noalloc
func markerNear(t []byte, lo, hi int) bool {
	lo = max(lo-isbnWindow, 0)
	hi = min(hi+isbnWindow, len(t))
	for i := lo; i+4 <= hi; i++ {
		if t[i]|0x20 == 'i' && t[i+1]|0x20 == 's' && t[i+2]|0x20 == 'b' && t[i+3]|0x20 == 'n' {
			return true
		}
	}
	return false
}
