package classify

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/textgen"
)

func trainedModel() *NaiveBayes {
	rng := dist.NewRNG(17)
	nb := NewNaiveBayes(1)
	for i := 0; i < 120; i++ {
		nb.Train(textgen.Review(rng, "Golden Kitchen", 4+rng.Intn(4)), true)
		nb.Train(textgen.Boilerplate(rng, 4+rng.Intn(4)), false)
	}
	return nb
}

// TestScorerChunkedWritesMatch asserts tokens spanning Write boundaries
// score identically to a single write — the session feeds text runs of
// arbitrary lengths.
func TestScorerChunkedWritesMatch(t *testing.T) {
	nb := trainedModel()
	text := []byte("The FOOD was absolutely delicious and the service was friendly 5 stars")
	want, err := nb.LogOdds(string(text))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		sc, err := nb.NewScorer()
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(text); {
			hi := lo + 1 + r.Intn(7)
			if hi > len(text) {
				hi = len(text)
			}
			sc.Write(text[lo:hi])
			lo = hi
		}
		if got := sc.LogOdds(); got != want {
			t.Fatalf("chunked score %v != whole score %v", got, want)
		}
	}
}

// TestScorerResetIsolation: scoring one document must not leak into the
// next after Reset.
func TestScorerResetIsolation(t *testing.T) {
	nb := trainedModel()
	sc, err := nb.NewScorer()
	if err != nil {
		t.Fatal(err)
	}
	sc.Write([]byte("delicious wonderful excellent tasty amazing"))
	first := sc.LogOdds()
	sc.Reset()
	sc.Write([]byte("delicious wonderful excellent tasty amazing"))
	if second := sc.LogOdds(); second != first {
		t.Fatalf("score after Reset = %v, want %v", second, first)
	}
}

// TestTokenizeVsByteScorerAgreement checks the byte tokenizer recognizes
// exactly the tokens Tokenize produces on ASCII text, via a model where
// every token is discriminative.
func TestTokenizeVsByteScorerAgreement(t *testing.T) {
	cases := []string{
		"The FOOD was great!! 5 stars, worth $20.",
		"a ! b ? single letters drop",
		"punct.separated,tokens;here|too",
		"  leading and trailing   ",
		"MiXeD CaSe ToKeNs 42x7",
		"", "x", "xy",
		"café non-ascii bytes split tokens 世界 ok",
	}
	nb := NewNaiveBayes(1)
	nb.Train("dummy positive corpus", true)
	nb.Train("dummy negative corpus here", false)
	for _, c := range cases {
		want, err := nb.LogOdds(c) // string path (shared scorer)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := nb.NewScorer()
		if err != nil {
			t.Fatal(err)
		}
		sc.Write([]byte(c))
		if got := sc.LogOdds(); got != want {
			t.Fatalf("byte/string divergence on %q: %v vs %v", c, got, want)
		}
	}
}

// TestTrainBytesMatchesTrain builds two models from the same corpus via
// the two training entry points and asserts identical scoring behavior.
func TestTrainBytesMatchesTrain(t *testing.T) {
	rng := dist.NewRNG(33)
	var corpus []string
	var labels []bool
	for i := 0; i < 60; i++ {
		corpus = append(corpus, textgen.Review(rng, "Thai Table", 3+rng.Intn(4)))
		labels = append(labels, true)
		corpus = append(corpus, textgen.Boilerplate(rng, 3+rng.Intn(4)))
		labels = append(labels, false)
	}
	a := NewNaiveBayes(1)
	b := NewNaiveBayes(1)
	for i := range corpus {
		a.Train(corpus[i], labels[i])
		b.TrainBytes([]byte(corpus[i]), labels[i])
	}
	if a.Vocabulary() != b.Vocabulary() {
		t.Fatalf("vocab %d vs %d", a.Vocabulary(), b.Vocabulary())
	}
	for _, probe := range corpus[:20] {
		sa, _ := a.LogOdds(probe)
		sb, _ := b.LogOdds(probe)
		if sa != sb {
			t.Fatalf("Train/TrainBytes models diverge on %q: %v vs %v", probe, sa, sb)
		}
	}
}

// TestTrainAfterScoringInvalidatesTable: more training must be visible
// to subsequent scoring (the LLR snapshot is rebuilt).
func TestTrainAfterScoringInvalidatesTable(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Train("delicious food", true)
	nb.Train("parking hours", false)
	before, err := nb.LogOdds("zebra")
	if err != nil {
		t.Fatal(err)
	}
	if before != 0 {
		t.Fatalf("unseen token with balanced priors should score 0, got %v", before)
	}
	nb.Train("zebra zebra zebra wonderful", true)
	nb.Train("mundane filler", false)
	after, err := nb.LogOdds("zebra")
	if err != nil {
		t.Fatal(err)
	}
	if after <= 0 {
		t.Fatalf("after positive training, zebra should score positive, got %v", after)
	}
}

func TestNewScorerUntrained(t *testing.T) {
	nb := NewNaiveBayes(1)
	if _, err := nb.NewScorer(); err == nil {
		t.Error("untrained NewScorer should fail")
	}
}

// TestScoreBytesAllocs pins the streaming score path's allocations.
func TestScoreBytesAllocs(t *testing.T) {
	nb := trainedModel()
	sc, err := nb.NewScorer()
	if err != nil {
		t.Fatal(err)
	}
	text := []byte(strings.Repeat("the food was delicious and the service was excellent ", 4))
	sc.Write(text)
	_ = sc.LogOdds() // warm the token buffer
	allocs := testing.AllocsPerRun(100, func() {
		sc.Reset()
		sc.Write(text)
		if sc.LogOdds() == 0 {
			t.Fatal("degenerate score")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Scorer allocs/op = %v, want 0", allocs)
	}
}

// oracleScore is the scorer's reference: a map from token to ratio
// rebuilt from the model's counts, probed once per token of 2+ bytes
// of ASCII-lower-cased [a-z0-9], ratios summed in token order.
func oracleScore(nb *NaiveBayes, text []byte) float64 {
	v := float64(len(nb.vocab))
	llr := make(map[string]float64, len(nb.vocab))
	for tok := range nb.vocab {
		p1 := (float64(nb.counts[1][tok]) + nb.alpha) / (float64(nb.tokens[1]) + nb.alpha*v)
		p0 := (float64(nb.counts[0][tok]) + nb.alpha) / (float64(nb.tokens[0]) + nb.alpha*v)
		llr[tok] = math.Log(p1 / p0)
	}
	var sum float64
	var tok []byte
	flush := func() {
		if lr, ok := llr[string(tok)]; ok && len(tok) >= 2 {
			sum += lr
		}
		tok = tok[:0]
	}
	for _, c := range text {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			tok = append(tok, c)
		} else {
			flush()
		}
	}
	flush()
	return math.Log(float64(nb.docs[1])/float64(nb.docs[0])) + sum
}

// FuzzScorerVsMap pins the scorer's token table to the map oracle: a
// model trained on fixed documents plus the first half of the input
// scores the whole input, written in two chunks split anywhere,
// bit-identically to oracleScore. The fixed documents hold tokens of 8,
// 9, 16 and 17 bytes and pairs that share their first 8 bytes and
// length, so probes must compare the arena tail.
func FuzzScorerVsMap(f *testing.F) {
	f.Add([]byte("a ab abcdefgh abcdefghi abcdefghijklmnop abcdefghijklmnopq"), uint16(13))
	f.Add([]byte("THE FOOD Was DELICIOUS 1234567890 42x7 ABCDEFGHIJ abcdefghik"), uint16(30))
	f.Add([]byte("café—naïve 世界tokens\xffsplit\x00zero ü ABcdefGHijklmnopQ"), uint16(7))
	f.Add([]byte("restaurant restaurants restauranx"), uint16(15))
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789 abcdefgh12 abcdefgh13"), uint16(20))
	f.Add([]byte(""), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		nb := NewNaiveBayes(1)
		nb.Train("delicious food wonderful abcdefghij abcdefghijklmnop restaurant 2012 ab abcdefgh12", true)
		nb.Train("parking hours abcdefghik abcdefghijklmnopq restaurants menu 555 abcdefgh13", false)
		nb.Train(string(data[:len(data)/2]), true)
		want := oracleScore(nb, data)
		sc, err := nb.NewScorer()
		if err != nil {
			t.Fatal(err)
		}
		k := int(split) % (len(data) + 1)
		sc.Write(data[:k])
		sc.Write(data[k:])
		if got := sc.LogOdds(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scorer %v (%#x) != map oracle %v (%#x) on %q split at %d",
				got, math.Float64bits(got), want, math.Float64bits(want), data, k)
		}
	})
}
