// Package classify implements the multinomial Naïve-Bayes text
// classifier the study uses to decide whether a page that mentions a
// restaurant's phone number actually contains a review of it (§3.2:
// "used a Naïve-Bayes classifier over the textual content to determine
// if a page has review content").
package classify

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Tokenize lower-cases s and splits it into letter/digit word tokens.
// Punctuation separates tokens; tokens shorter than 2 runes are dropped
// (single letters carry almost no class signal and inflate the model).
func Tokenize(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
	out := fields[:0]
	for _, f := range fields {
		if len(f) >= 2 {
			out = append(out, f)
		}
	}
	return out
}

// NaiveBayes is a binary multinomial Naïve-Bayes model with Laplace
// smoothing. Class true is "review", class false is "not a review".
// The zero value is unusable; construct with NewNaiveBayes.
//
// Scoring is driven by a precomputed log-likelihood-ratio snapshot — an
// open-addressing token table probed once per token by a packed key,
// no string hashing and no math.Log in the loop — that is built lazily
// on first score and invalidated by Train. Training and scoring must
// not run concurrently; once trained, any number of goroutines may
// score.
type NaiveBayes struct {
	alpha float64 // Laplace smoothing pseudo-count

	docs   [2]int // documents seen per class
	tokens [2]int // total token count per class
	counts [2]map[string]int
	vocab  map[string]struct{}

	table atomic.Pointer[llrTable]
	mu    sync.Mutex // serializes table rebuilds
}

// llrTable is the immutable scoring snapshot: the class-prior log odds
// plus, per vocabulary token, log(P(tok|review)/P(tok|¬review)) in an
// open-addressing table. Unseen tokens contribute 0 — equal evidence
// for both classes.
//
// A slot's key is the token's length and its first 8 bytes packed into
// a word, one shift-or per byte (see packWord). Tokens are runs of
// [a-z0-9], so they never contain a zero byte and a token of up to 8
// bytes is fully determined by its word and length; the bytes past the
// 8th live in one arena and are compared only when word and length
// match. The table is a power of two in size and at most half full,
// probed linearly from a multiplicative mix of word and length.
type llrTable struct {
	prior  float64
	slots  []tokenSlot
	shift  uint   // 64 - log2(len(slots)): keeps the mix's top bits
	arena  []byte // bytes [8:n] of every token longer than 8
	maxLen int    // longest vocabulary token
}

// tokenSlot is one table entry; n == 0 marks an empty slot (vocabulary
// tokens have at least 2 bytes).
type tokenSlot struct {
	word uint64
	n    int
	off  int // the token's bytes [8:n] are arena[off : off+n-8]
	llr  float64
}

// tokenMix is the multiplier of the probe mix (2^64 / golden ratio).
const tokenMix = 0x9E3779B97F4A7C15

// packWord packs the first 8 bytes of tok into a word exactly as the
// scorer does while it reads them.
func packWord(tok string) uint64 {
	var w uint64
	for i := 0; i < len(tok) && i < 8; i++ {
		w = w<<8 | uint64(tok[i])
	}
	return w
}

// home returns the first slot probed for a token's word and length.
func (t *llrTable) home(word uint64, n int) int {
	return int((word ^ uint64(n)) * tokenMix >> t.shift)
}

// lookup returns the ratio of the token with packed word, length n and
// bytes past the 8th tail, and whether it is in the vocabulary.
func (t *llrTable) lookup(word uint64, n int, tail []byte) (float64, bool) {
	mask := len(t.slots) - 1
	for i := t.home(word, n); ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.n == 0 {
			return 0, false
		}
		if e.n == n && e.word == word && (n <= 8 || bytes.Equal(t.arena[e.off:e.off+n-8], tail)) {
			return e.llr, true
		}
	}
}

// insert adds a vocabulary token (at least 2 bytes, not yet present).
func (t *llrTable) insert(tok string, llr float64) {
	e := tokenSlot{word: packWord(tok), n: len(tok), llr: llr}
	if len(tok) > 8 {
		e.off = len(t.arena)
		t.arena = append(t.arena, tok[8:]...)
	}
	t.maxLen = max(t.maxLen, len(tok))
	i := t.home(e.word, e.n)
	for t.slots[i].n != 0 {
		i = (i + 1) & (len(t.slots) - 1)
	}
	t.slots[i] = e
}

// NewNaiveBayes returns an untrained model with the given Laplace
// smoothing parameter (alpha <= 0 defaults to 1).
func NewNaiveBayes(alpha float64) *NaiveBayes {
	if alpha <= 0 || math.IsNaN(alpha) {
		alpha = 1
	}
	return &NaiveBayes{
		alpha:  alpha,
		counts: [2]map[string]int{make(map[string]int), make(map[string]int)},
		vocab:  make(map[string]struct{}),
	}
}

func classIndex(positive bool) int {
	if positive {
		return 1
	}
	return 0
}

// Train adds one labeled document.
func (nb *NaiveBayes) Train(text string, isReview bool) {
	ci := classIndex(isReview)
	nb.docs[ci]++
	for _, tok := range Tokenize(text) {
		nb.counts[ci][tok]++
		nb.tokens[ci]++
		nb.vocab[tok] = struct{}{}
	}
	nb.table.Store(nil)
}

// TrainBytes adds one labeled document given as raw bytes, tokenizing
// with the streaming byte tokenizer (ASCII lower-casing, done in place
// — the caller's buffer is modified; multi-byte runes are separators,
// identical to Tokenize on ASCII text). It is the allocation-light path
// used by the streaming training pipeline: only tokens new to the model
// allocate.
func (nb *NaiveBayes) TrainBytes(text []byte, isReview bool) {
	ci := classIndex(isReview)
	nb.docs[ci]++
	start := -1
	flush := func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		tok := string(text[lo:hi])
		nb.counts[ci][tok]++
		nb.tokens[ci]++
		nb.vocab[tok] = struct{}{}
	}
	for i := 0; i < len(text); i++ {
		if c := tokenByte[text[i]]; c != 0 {
			text[i] = c // lowercase ASCII in place
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			flush(start, i)
			start = -1
		}
	}
	if start >= 0 {
		flush(start, len(text))
	}
	nb.table.Store(nil)
}

// Trained reports whether both classes have at least one document.
func (nb *NaiveBayes) Trained() bool { return nb.docs[0] > 0 && nb.docs[1] > 0 }

// llrtab returns the current scoring table, rebuilding it if training
// invalidated the snapshot.
func (nb *NaiveBayes) llrtab() (*llrTable, error) {
	if !nb.Trained() {
		return nil, fmt.Errorf("classify: model needs at least one document of each class")
	}
	if t := nb.table.Load(); t != nil {
		return t, nil
	}
	nb.mu.Lock()
	defer nb.mu.Unlock()
	if t := nb.table.Load(); t != nil {
		return t, nil
	}
	bits := uint(3)
	for 1<<bits < 2*len(nb.vocab) {
		bits++
	}
	t := &llrTable{
		prior: math.Log(float64(nb.docs[1]) / float64(nb.docs[0])),
		slots: make([]tokenSlot, 1<<bits),
		shift: 64 - bits,
	}
	for tok := range nb.vocab {
		t.insert(tok, nb.ratio(tok))
	}
	nb.table.Store(t)
	return t, nil
}

// ratio returns tok's log-likelihood ratio log(P(tok|review) /
// P(tok|¬review)) under Laplace smoothing.
func (nb *NaiveBayes) ratio(tok string) float64 {
	v := float64(len(nb.vocab))
	p1 := (float64(nb.counts[1][tok]) + nb.alpha) / (float64(nb.tokens[1]) + nb.alpha*v)
	p0 := (float64(nb.counts[0][tok]) + nb.alpha) / (float64(nb.tokens[0]) + nb.alpha*v)
	return math.Log(p1 / p0)
}

// LogOdds returns log P(review | text) - log P(¬review | text) up to the
// shared normalizer. Positive means "review". It returns an error if the
// model has not seen both classes. It is a thin wrapper over the
// streaming scorer, so the string and byte paths produce bit-identical
// scores; like the scorer, it tokenizes with ASCII lower-casing
// (multi-byte runes are separators), which matches Tokenize on ASCII
// text but not on exotic case mappings such as U+0130 or U+212A.
func (nb *NaiveBayes) LogOdds(text string) (float64, error) {
	t, err := nb.llrtab()
	if err != nil {
		return 0, err
	}
	sc := Scorer{t: t}
	sc.Write([]byte(text))
	return sc.LogOdds(), nil
}

// Classify reports whether text is a review. It returns an error if the
// model is untrained.
func (nb *NaiveBayes) Classify(text string) (bool, error) {
	lo, err := nb.LogOdds(text)
	if err != nil {
		return false, err
	}
	return lo > 0, nil
}

// NewScorer returns a streaming scorer bound to the model's current
// training state. A Scorer accumulates log-odds over incrementally
// written text (Reset starts the next document) and holds only a small
// reusable token buffer, so steady-state scoring allocates nothing.
// Not safe for concurrent use; create one per goroutine.
func (nb *NaiveBayes) NewScorer() (*Scorer, error) {
	t, err := nb.llrtab()
	if err != nil {
		return nil, err
	}
	return &Scorer{t: t}, nil
}

// Scorer is an incremental document scorer over a model snapshot. It
// keeps the pending token as its length, its packed first 8 bytes and
// a buffer of the bytes past the 8th, so a token is looked up without
// building a string or hashing it byte by byte.
type Scorer struct {
	t    *llrTable
	sum  float64
	word uint64 // pending token's first 8 bytes, packed as packWord does
	n    int    // pending token length; tokens span Write boundaries
	tail []byte // pending token's bytes past the 8th (up to t.maxLen)
}

// tokenByte maps a token byte (ASCII letter or digit) to its lower-case
// form and every other byte — including each byte of a multi-byte rune
// — to 0, a separator.
var tokenByte = func() (tb [256]byte) {
	for c := '0'; c <= '9'; c++ {
		tb[c] = byte(c)
	}
	for c := 'a'; c <= 'z'; c++ {
		tb[c] = byte(c)
		tb[c-'a'+'A'] = byte(c)
	}
	return tb
}()

// Reset clears accumulated state so the scorer can score a new document.
//
//repro:noalloc
func (s *Scorer) Reset() {
	s.sum = 0
	s.word, s.n, s.tail = 0, 0, s.tail[:0]
}

// Write feeds text bytes. Tokens may span Write boundaries. The loop
// keeps the pending token in locals and stores it back once per call.
//
//repro:noalloc
func (s *Scorer) Write(p []byte) {
	t := s.t
	sum, word, n, tail := s.sum, s.word, s.n, s.tail
	for _, c := range p {
		if l := tokenByte[c]; l != 0 {
			if n < 8 {
				word = word<<8 | uint64(l)
			} else if n < t.maxLen {
				tail = append(tail, l) //repro:alloc-ok tail grows once, to the longest vocabulary token
			}
			n++
			continue
		}
		if n >= 2 {
			if lr, ok := t.lookup(word, n, tail); ok {
				sum += lr
			}
		}
		word, n, tail = 0, 0, tail[:0]
	}
	s.sum, s.word, s.n, s.tail = sum, word, n, tail
}

// LogOdds finalizes any pending token and returns the accumulated
// log-odds including the class prior. The scorer remains usable: more
// writes continue the same document (the finalize acts as a separator).
//
//repro:noalloc
func (s *Scorer) LogOdds() float64 {
	if s.n >= 2 {
		if lr, ok := s.t.lookup(s.word, s.n, s.tail); ok {
			s.sum += lr
		}
	}
	s.word, s.n, s.tail = 0, 0, s.tail[:0]
	return s.t.prior + s.sum
}

// Vocabulary returns the number of distinct tokens seen in training.
func (nb *NaiveBayes) Vocabulary() int { return len(nb.vocab) }
