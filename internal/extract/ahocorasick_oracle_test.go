package extract

import (
	"fmt"

	"repro/internal/entity"
)

// AhoCorasick is a byte-level multi-pattern matcher. It was the
// dictionary matcher of the streaming extraction session, over every
// rendering of every database phone or ISBN, until the grammar scanner
// (scan.go) replaced it; it survives as a test-only cross-check of the
// regex oracle.
//
// The transition table is compact: the automaton maps the bytes that
// actually occur in patterns to a dense class alphabet (class 0 is
// "every other byte"), so a database-sized automaton (tens of thousands
// of phone renderings) costs tens of bytes per state instead of 1 KiB.
type AhoCorasick struct {
	stride int        // classes per state (distinct pattern bytes + 1)
	class  [256]uint8 // byte -> class; 0 = not in any pattern
	next   []int32    // state*stride + class -> state
	fail   []int32
	out    [][]int32 // pattern indices terminating at each state
	pats   []string
	vals   []int // caller payload per pattern
}

// NewAhoCorasick builds the automaton from patterns with associated
// payload values. It returns an error for empty input, empty patterns,
// or mismatched lengths.
func NewAhoCorasick(patterns []string, values []int) (*AhoCorasick, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("extract: AhoCorasick needs at least one pattern")
	}
	if len(patterns) != len(values) {
		return nil, fmt.Errorf("extract: %d patterns vs %d values", len(patterns), len(values))
	}
	ac := &AhoCorasick{pats: patterns, vals: values}
	for pi, p := range patterns {
		if p == "" {
			return nil, fmt.Errorf("extract: pattern %d is empty", pi)
		}
		for i := 0; i < len(p); i++ {
			if ac.class[p[i]] == 0 {
				if ac.stride == 255 {
					// Class 0 is reserved for out-of-alphabet bytes, so at
					// most 255 distinct pattern bytes fit the uint8 classes.
					return nil, fmt.Errorf("extract: patterns use more than 255 distinct byte values")
				}
				ac.stride++
				ac.class[p[i]] = uint8(ac.stride)
			}
		}
	}
	ac.stride++ // class 0: bytes outside the pattern alphabet
	ac.addState()
	for pi, p := range patterns {
		s := int32(0)
		for i := 0; i < len(p); i++ {
			c := int32(ac.class[p[i]])
			if ac.next[s*int32(ac.stride)+c] == 0 {
				ac.next[s*int32(ac.stride)+c] = ac.addState()
			}
			s = ac.next[s*int32(ac.stride)+c]
		}
		ac.out[s] = append(ac.out[s], int32(pi))
	}
	ac.buildFailLinks()
	return ac, nil
}

func (ac *AhoCorasick) addState() int32 {
	for i := 0; i < ac.stride; i++ {
		ac.next = append(ac.next, 0)
	}
	ac.fail = append(ac.fail, 0)
	ac.out = append(ac.out, nil)
	return int32(len(ac.out) - 1)
}

// buildFailLinks runs the standard BFS converting the trie into an
// automaton with goto-on-failure resolved into the transition table.
func (ac *AhoCorasick) buildFailLinks() {
	stride := int32(ac.stride)
	queue := make([]int32, 0, len(ac.out))
	for c := int32(0); c < stride; c++ {
		if s := ac.next[c]; s != 0 {
			ac.fail[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for c := int32(0); c < stride; c++ {
			v := ac.next[u*stride+c]
			if v == 0 {
				// Path compression: inherit the failure transition.
				ac.next[u*stride+c] = ac.next[ac.fail[u]*stride+c]
				continue
			}
			ac.fail[v] = ac.next[ac.fail[u]*stride+c]
			ac.out[v] = append(ac.out[v], ac.out[ac.fail[v]]...)
			queue = append(queue, v)
		}
	}
}

// Match is one automaton hit.
type Match struct {
	Value int // payload of the matched pattern
	End   int // byte offset just past the match
}

// Feed advances the matcher state over chunk, whose first byte sits at
// absolute offset base in the logical stream, invoking emit(pi, end)
// for every pattern hit (end is the absolute offset just past the
// match). It returns the new state. State 0 is the start state, so
// matching across arbitrarily chunked input is:
//
//	s := int32(0)
//	for each chunk { s = ac.Feed(s, chunk, base, emit) }
//
// Feed performs no allocation.
func (ac *AhoCorasick) Feed(state int32, chunk []byte, base int, emit func(pi int32, end int)) int32 {
	s := state
	stride := int32(ac.stride)
	for i := 0; i < len(chunk); i++ {
		s = ac.next[s*stride+int32(ac.class[chunk[i]])]
		for _, pi := range ac.out[s] {
			emit(pi, base+i+1)
		}
	}
	return s
}

// Value returns the payload of pattern pi.
func (ac *AhoCorasick) Value(pi int32) int { return ac.vals[pi] }

// PatternLen returns the byte length of pattern pi.
func (ac *AhoCorasick) PatternLen(pi int32) int { return len(ac.pats[pi]) }

// FindAll returns every pattern occurrence in text.
func (ac *AhoCorasick) FindAll(text string) []Match {
	var out []Match
	s := int32(0)
	stride := int32(ac.stride)
	for i := 0; i < len(text); i++ {
		s = ac.next[s*stride+int32(ac.class[text[i]])]
		for _, pi := range ac.out[s] {
			out = append(out, Match{Value: ac.vals[pi], End: i + 1})
		}
	}
	return out
}

// FindValues returns the distinct payload values occurring in text, in
// first-appearance order.
func (ac *AhoCorasick) FindValues(text string) []int {
	var out []int
	seen := make(map[int]struct{})
	s := int32(0)
	stride := int32(ac.stride)
	for i := 0; i < len(text); i++ {
		s = ac.next[s*stride+int32(ac.class[text[i]])]
		for _, pi := range ac.out[s] {
			v := ac.vals[pi]
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
	}
	return out
}

// PhoneAutomaton builds an Aho–Corasick automaton over the four common
// renderings of every phone in the database, with entity IDs as payloads.
func PhoneAutomaton(db *entity.DB) (*AhoCorasick, error) {
	var pats []string
	var vals []int
	for _, e := range db.Entities {
		if e.Phone == "" {
			continue
		}
		for f := entity.PhoneParens; f <= entity.PhoneBare; f++ {
			pats = append(pats, phoneText(e.Phone, f))
			vals = append(vals, e.ID)
		}
	}
	if len(pats) == 0 {
		return nil, fmt.Errorf("extract: database has no phones")
	}
	return NewAhoCorasick(pats, vals)
}

// isbnMarkerValue is the payload marking an "ISBN" marker-string hit in
// the ISBN automaton (§3.2 requires the literal string near a match).
const isbnMarkerValue = -1

// ISBNAutomaton builds an automaton over the rendered ISBN forms of
// every book in the database — bare ISBN-10, bare ISBN-13, and the
// conventional hyphenated ISBN-13 — plus the 16 case variants of the
// "ISBN" marker string with payload isbnMarkerValue.
func ISBNAutomaton(db *entity.DB) (*AhoCorasick, error) {
	var pats []string
	var vals []int
	for _, e := range db.Entities {
		for _, s := range []string{e.ISBN10, e.ISBN13, isbnText(e.ISBN13)} {
			if s == "" {
				continue
			}
			pats = append(pats, s)
			vals = append(vals, e.ID)
		}
	}
	if len(pats) == 0 {
		return nil, fmt.Errorf("extract: database has no ISBNs")
	}
	for m := 0; m < 16; m++ {
		b := []byte("isbn")
		for j := 0; j < 4; j++ {
			if m>>j&1 == 1 {
				b[j] -= 'a' - 'A'
			}
		}
		pats = append(pats, string(b))
		vals = append(vals, isbnMarkerValue)
	}
	return NewAhoCorasick(pats, vals)
}
