package classify

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/textgen"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("The FOOD was great!! 5 stars, worth $20.")
	want := []string{"the", "food", "was", "great", "stars", "worth", "20"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("a ! b ?"); len(got) != 0 {
		t.Errorf("single letters should drop, got %v", got)
	}
}

func TestUntrainedErrors(t *testing.T) {
	nb := NewNaiveBayes(1)
	if _, err := nb.Classify("anything"); err == nil {
		t.Error("untrained Classify should fail")
	}
	nb.Train("only positive examples here", true)
	if _, err := nb.Classify("anything"); err == nil {
		t.Error("one-class model should fail")
	}
	if nb.Trained() {
		t.Error("Trained should be false with one class")
	}
}

func TestSimpleSeparation(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Train("the food was delicious and the service was excellent five stars", true)
	nb.Train("amazing meal would recommend the pasta to everyone", true)
	nb.Train("business hours are monday through friday nine to five", false)
	nb.Train("located at the corner of main street ample parking available", false)

	rev, err := nb.Classify("delicious food and excellent service")
	if err != nil {
		t.Fatal(err)
	}
	if !rev {
		t.Error("review text misclassified as non-review")
	}
	info, err := nb.Classify("hours are monday through friday with parking")
	if err != nil {
		t.Fatal(err)
	}
	if info {
		t.Error("directory text misclassified as review")
	}
}

func TestAlphaDefaulting(t *testing.T) {
	for _, alpha := range []float64{0, -3} {
		nb := NewNaiveBayes(alpha)
		if nb.alpha != 1 {
			t.Errorf("alpha %v should default to 1, got %v", alpha, nb.alpha)
		}
	}
}

func TestUnknownTokensNeutral(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Train("delicious wonderful tasty", true)
	nb.Train("hours parking directions", false)
	// A document of entirely unseen tokens should score by the prior
	// alone; with balanced priors the log-odds are exactly 0.
	lo, err := nb.LogOdds("zzz qqq xxx")
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 {
		t.Errorf("unseen-token log-odds = %v, want 0 with balanced priors", lo)
	}
}

func TestPriorImbalance(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Train("common words here", true)
	for i := 0; i < 9; i++ {
		nb.Train("common words here", false)
	}
	lo, err := nb.LogOdds("unrelated tokens only zzz")
	if err != nil {
		t.Fatal(err)
	}
	if lo >= 0 {
		t.Errorf("9:1 negative prior should give negative log-odds, got %v", lo)
	}
}

func TestSyntheticCorpusAccuracy(t *testing.T) {
	// The model must separate textgen reviews from boilerplate with high
	// accuracy — this is the exact setting the pipeline uses.
	rng := dist.NewRNG(42)
	nb := NewNaiveBayes(1)
	for i := 0; i < 300; i++ {
		nb.Train(textgen.Review(rng, "Golden Kitchen", 4+rng.Intn(4)), true)
		nb.Train(textgen.Boilerplate(rng, 4+rng.Intn(4)), false)
	}
	var texts []string
	var labels []bool
	for i := 0; i < 200; i++ {
		texts = append(texts, textgen.Review(rng, "Blue Table", 4+rng.Intn(4)))
		labels = append(labels, true)
		texts = append(texts, textgen.Boilerplate(rng, 4+rng.Intn(4)))
		labels = append(labels, false)
	}
	var tp, fp, tn, fn int
	for i, text := range texts {
		pred, err := nb.Classify(text)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case pred && labels[i]:
			tp++
		case pred:
			fp++
		case labels[i]:
			fn++
		default:
			tn++
		}
	}
	if acc := float64(tp+tn) / float64(len(texts)); acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95 (tp=%d fp=%d tn=%d fn=%d)", acc, tp, fp, tn, fn)
	}
	// Half the texts are reviews, so tp > 0 whenever accuracy passes.
	precision, recall := float64(tp)/float64(tp+fp), float64(tp)/float64(tp+fn)
	if precision < 0.9 || recall < 0.9 {
		t.Errorf("precision/recall = %v/%v", precision, recall)
	}
}

func TestVocabulary(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Train("aa bb aa", true)
	nb.Train("bb cc", false)
	if v := nb.Vocabulary(); v != 3 {
		t.Errorf("Vocabulary = %d, want 3", v)
	}
}

func TestLogOddsMonotoneInEvidence(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Train("tasty wonderful delightful", true)
	nb.Train("parking hours directions", false)
	weak, _ := nb.LogOdds("tasty zzzz")
	strong, _ := nb.LogOdds("tasty wonderful delightful")
	if strong <= weak {
		t.Errorf("more review evidence should raise log-odds: %v vs %v", strong, weak)
	}
	if neg, _ := nb.LogOdds(strings.Repeat("parking ", 5)); neg >= 0 {
		t.Errorf("pure negative evidence should be negative, got %v", neg)
	}
}
