package extract

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/htmlx"
)

// Session is the streaming extraction pipeline for one worker. It
// streams a page through htmlx's visitor without building a DOM, a
// joined text string or per-call token slices: text runs are collapsed
// into one reused buffer (fed to the review scorer as they arrive),
// anchors resolve as they stream, and one scanner pass over the
// collapsed text then finds the phones or ISBNs (scan.go). All scratch
// state is reused across pages, so Page performs zero allocations at
// steady state. Output is mention-identical to the DOM + regex test
// oracle, pinned by the property tests.
//
// A Session is not safe for concurrent use; create one per goroutine
// with Extractor.NewSession (sessions share the extractor's read-only
// database and classifier).
type Session struct {
	x *Extractor

	str htmlx.Streamer

	// text accumulates the page's whitespace-collapsed text — byte for
	// byte the oracle's joined, Fields-collapsed string — for the
	// scanner; the scorer consumes it incrementally.
	text    []byte
	started bool // a non-space byte has been emitted
	pending bool // whitespace run awaiting collapse into one ' '

	scorer *classify.Scorer

	mentions []Mention
	phoneIDs []int
	homeIDs  []int

	// Generation-stamped dedup marks, indexed by dense entity ID: no
	// per-page map clearing.
	gen      uint64
	seenKey  []uint64 // phone or ISBN mentions
	seenHome []uint64

	urlBuf []byte // canonical-homepage scratch

	onTextF   func([]byte)
	onAnchorF func([]byte)
}

// NewSession returns a streaming extraction session. It errors only if
// the review classifier cannot build its scorer; a database without
// phones (or ISBNs) yields sessions that find no key mentions.
func (x *Extractor) NewSession() (*Session, error) {
	s := &Session{
		x:        x,
		seenKey:  make([]uint64, x.db.N()),
		seenHome: make([]uint64, x.db.N()),
	}
	if x.reviewAttr && x.reviewClf != nil {
		var err error
		s.scorer, err = x.reviewClf.NewScorer()
		if err != nil {
			return nil, err
		}
	}
	s.onTextF = s.onText
	s.onAnchorF = s.onAnchor
	return s, nil
}

// Page extracts all entity mentions from one HTML page via the fused
// streaming pipeline. The returned slice is reused by the next Page
// call; copy it if it must outlive the call. It finds phones (or ISBNs
// with a nearby "ISBN" marker) in the rendered page text and matches
// them against the database, homepages from anchor hrefs, and — when a
// classifier is present — a review mention per phone-matched entity on
// positively classified pages.
//
//repro:noalloc
func (s *Session) Page(html []byte) []Mention {
	s.gen++
	if s.gen == 0 { // uint64 wrap: clear stale marks, then restart at 1
		clear(s.seenKey)
		clear(s.seenHome)
		s.gen = 1
	}
	s.text = s.text[:0]
	s.started = false
	s.pending = false
	s.mentions = s.mentions[:0]
	s.phoneIDs = s.phoneIDs[:0]
	s.homeIDs = s.homeIDs[:0]
	if s.scorer != nil {
		s.scorer.Reset()
	}

	s.str.Stream(html, s.onTextF, s.onAnchorF)

	if s.x.db.Domain == entity.Books {
		s.matchISBNs()
		return s.mentions
	}

	s.matchPhones()
	for _, id := range s.phoneIDs {
		s.mentions = append(s.mentions, Mention{EntityID: id, Attr: entity.AttrPhone}) //repro:alloc-ok mentions keeps its steady-state capacity across pages
	}
	for _, id := range s.homeIDs {
		s.mentions = append(s.mentions, Mention{EntityID: id, Attr: entity.AttrHomepage}) //repro:alloc-ok mentions keeps its steady-state capacity across pages
	}
	if s.x.reviewAttr && s.scorer != nil && len(s.phoneIDs) > 0 {
		if s.scorer.LogOdds() > 0 {
			for _, id := range s.phoneIDs {
				s.mentions = append(s.mentions, Mention{EntityID: id, Attr: entity.AttrReview}) //repro:alloc-ok mentions keeps its steady-state capacity across pages
			}
		}
	}
	return s.mentions
}

// matchPhones scans the page text for phones and records each database
// entity found, once, in first-appearance order.
//
//repro:noalloc
func (s *Session) matchPhones() {
	var sc phoneScan
	for sc.next(s.text) {
		id, ok := s.x.db.LookupPhoneKey(sc.key[:])
		if !ok || s.seenKey[id] == s.gen {
			continue
		}
		s.seenKey[id] = s.gen
		s.phoneIDs = append(s.phoneIDs, id) //repro:alloc-ok phoneIDs keeps its steady-state capacity across pages
	}
}

// matchISBNs scans the page text for ISBN candidates and records a
// mention, once per book, for each checksum-valid database ISBN with
// an "ISBN" marker in its window.
//
//repro:noalloc
func (s *Session) matchISBNs() {
	var sc isbnScan
	for {
		lo, hi, ok := sc.next(s.text)
		if !ok {
			return
		}
		key := sc.key[:sc.n]
		if !validISBN(key) || !markerNear(s.text, lo, hi) {
			continue
		}
		id, ok := s.x.db.LookupISBNKey(key)
		if !ok || s.seenKey[id] == s.gen {
			continue
		}
		s.seenKey[id] = s.gen
		s.mentions = append(s.mentions, Mention{EntityID: id, Attr: entity.AttrISBN}) //repro:alloc-ok mentions keeps its steady-state capacity across pages
	}
}

// onText receives one decoded text run from the streaming visitor,
// appends its whitespace-collapsed form to the page text, and feeds the
// newly appended bytes to the review scorer.
func (s *Session) onText(run []byte) {
	old := len(s.text)
	s.text = appendCollapsed(s.text, run, &s.started, &s.pending)
	// The oracle joins text runs with a space before collapsing; defer
	// it so a trailing separator never materializes.
	s.pending = true
	if s.scorer != nil && len(s.text) > old {
		s.scorer.Write(s.text[old:])
	}
}

// onAnchor resolves one anchor href against the homepage index.
func (s *Session) onAnchor(href []byte) {
	s.urlBuf = entity.AppendCanonicalURL(s.urlBuf[:0], href)
	id, ok := s.x.db.LookupHomepageKey(s.urlBuf)
	if !ok {
		return
	}
	if s.seenHome[id] == s.gen {
		return
	}
	s.seenHome[id] = s.gen
	s.homeIDs = append(s.homeIDs, id)
}

// appendCollapsed appends run to dst with whitespace runs collapsed to
// single spaces, exactly reproducing strings.Join(strings.Fields(x), " ")
// semantics incrementally (unicode whitespace; no leading or trailing
// separator). started/pending carry the collapse state across runs.
// A run of ASCII non-space bytes, with the single spaces between them
// (which collapse to themselves), is copied with one append; only other
// whitespace and non-ASCII runes go byte by byte.
func appendCollapsed(dst, run []byte, started, pending *bool) []byte {
	for i := 0; i < len(run); {
		c := run[i]
		if byteClass[c]&clsPlain != 0 {
			j := i + 1
			for j < len(run) {
				if byteClass[run[j]]&clsPlain != 0 {
					j++
				} else if run[j] == ' ' && j+1 < len(run) && byteClass[run[j+1]]&clsPlain != 0 {
					j += 2
				} else {
					break
				}
			}
			if *started && *pending {
				dst = append(dst, ' ')
			}
			*pending = false
			*started = true
			dst = append(dst, run[i:j]...)
			i = j
			continue
		}
		if c < utf8.RuneSelf { // ASCII whitespace
			*pending = true
			i++
			continue
		}
		r, size := utf8.DecodeRune(run[i:])
		if unicode.IsSpace(r) {
			*pending = true
			i += size
			continue
		}
		if *started && *pending {
			dst = append(dst, ' ')
		}
		*pending = false
		*started = true
		dst = append(dst, run[i:i+size]...)
		i += size
	}
	return dst
}

// Trainer feeds streamed training pages into a Naïve-Bayes model
// without materializing per-page text strings: pages stream through the
// visitor into a reused collapsed-text buffer, and only vocabulary-new
// tokens allocate.
type Trainer struct {
	nb      *classify.NaiveBayes
	str     htmlx.Streamer
	text    []byte
	started bool
	pending bool
	onTextF func([]byte)
}

// NewTrainer returns a Trainer around a fresh model with the given
// Laplace smoothing parameter (<= 0 defaults to 1).
func NewTrainer(alpha float64) *Trainer {
	t := &Trainer{nb: classify.NewNaiveBayes(alpha)}
	t.onTextF = func(run []byte) {
		t.text = appendCollapsed(t.text, run, &t.started, &t.pending)
		t.pending = true
	}
	return t
}

// Add trains on one labeled HTML page.
func (t *Trainer) Add(html []byte, isReview bool) {
	t.text = t.text[:0]
	t.started = false
	t.pending = false
	t.str.Stream(html, t.onTextF, nil)
	t.nb.TrainBytes(t.text, isReview)
}

// Classifier returns the trained model, erroring unless both classes
// were seen.
func (t *Trainer) Classifier() (*classify.NaiveBayes, error) {
	if !t.nb.Trained() {
		return nil, fmt.Errorf("extract: training data must include both classes")
	}
	return t.nb, nil
}
