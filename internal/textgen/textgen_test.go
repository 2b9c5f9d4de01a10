package textgen

import (
	"strings"
	"testing"

	"repro/internal/dist"
)

func TestBusinessNameDeterministic(t *testing.T) {
	a := BusinessName(dist.NewRNG(1), "restaurants")
	b := BusinessName(dist.NewRNG(1), "restaurants")
	if a != b {
		t.Errorf("same seed produced %q and %q", a, b)
	}
}

func TestBusinessNameNonEmptyAllDomains(t *testing.T) {
	rng := dist.NewRNG(2)
	domains := []string{"restaurants", "automotive", "banks", "libraries",
		"schools", "hotels", "retail", "homegarden", "unknown-domain"}
	for _, d := range domains {
		for i := 0; i < 50; i++ {
			name := BusinessName(rng, d)
			if strings.TrimSpace(name) == "" {
				t.Fatalf("empty name for domain %s", d)
			}
		}
	}
}

func TestBusinessNameVariety(t *testing.T) {
	rng := dist.NewRNG(3)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[BusinessName(rng, "restaurants")] = true
	}
	if len(seen) < 50 {
		t.Errorf("only %d distinct names in 200 draws", len(seen))
	}
}

func TestPersonName(t *testing.T) {
	rng := dist.NewRNG(4)
	name := PersonName(rng)
	parts := strings.Split(name, " ")
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		t.Errorf("malformed person name %q", name)
	}
}

func TestUSAddress(t *testing.T) {
	rng := dist.NewRNG(5)
	for i := 0; i < 100; i++ {
		a := USAddress(rng)
		if a.Street == "" || a.City == "" || len(a.State) != 2 || len(a.Zip) != 5 {
			t.Fatalf("malformed address %+v", a)
		}
		s := a.String()
		if !strings.Contains(s, a.City) || !strings.Contains(s, a.Zip) {
			t.Fatalf("String() missing fields: %q", s)
		}
	}
}

func TestReviewMentionsEntitySometimes(t *testing.T) {
	rng := dist.NewRNG(6)
	mentions := 0
	for i := 0; i < 200; i++ {
		if strings.Contains(Review(rng, "Golden Kitchen", 6), "Golden Kitchen") {
			mentions++
		}
	}
	if mentions == 0 {
		t.Error("reviews never mention the entity name")
	}
}

func TestReviewMinSentences(t *testing.T) {
	rng := dist.NewRNG(7)
	r := Review(rng, "X", 0)
	if len(strings.Fields(r)) < 10 {
		t.Errorf("review too short even with floor: %q", r)
	}
}

func TestBoilerplateNonEmpty(t *testing.T) {
	rng := dist.NewRNG(8)
	b := Boilerplate(rng, 0)
	if strings.TrimSpace(b) == "" {
		t.Error("boilerplate empty with floor")
	}
	b5 := Boilerplate(rng, 5)
	if strings.Count(b5, ".") < 4 {
		t.Errorf("expected ~5 sentences, got %q", b5)
	}
}

func TestReviewAndBoilerplateDiffer(t *testing.T) {
	// The review generator must produce text that is lexically
	// distinguishable from boilerplate: count sentiment words.
	rng := dist.NewRNG(9)
	sentiment := func(s string) int {
		n := 0
		for _, w := range []string{"service", "food", "stars", "recommend", "disappointed", "delicious"} {
			n += strings.Count(strings.ToLower(s), w)
		}
		return n
	}
	revHits, boilHits := 0, 0
	for i := 0; i < 100; i++ {
		revHits += sentiment(Review(rng, "Cafe", 5))
		boilHits += sentiment(Boilerplate(rng, 5))
	}
	if revHits <= boilHits {
		t.Errorf("reviews not more sentiment-laden: %d vs %d", revHits, boilHits)
	}
}

func TestTitleGenerators(t *testing.T) {
	rng := dist.NewRNG(10)
	for i := 0; i < 50; i++ {
		if BookTitle(rng) == "" || MovieTitle(rng) == "" || ProductTitle(rng) == "" {
			t.Fatal("empty title")
		}
	}
}

func TestCapitalize(t *testing.T) {
	if capitalize("") != "" {
		t.Error("empty capitalize")
	}
	if capitalize("abc") != "Abc" {
		t.Error("capitalize failed")
	}
}

func TestCity(t *testing.T) {
	if City(dist.NewRNG(11)) == "" {
		t.Error("empty city")
	}
}

// PersonName returns a random full name.
func PersonName(rng *dist.RNG) string {
	var b strings.Builder
	WritePersonName(&b, rng)
	return b.String()
}

// City returns a random city name.
func City(rng *dist.RNG) string { return cities[rng.Intn(len(cities))] }

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// Review generates a review paragraph about the named entity, with the
// given number of sentences (minimum 3 effective). Reviews mix opener,
// sentiment sentences, shared filler, and a closer, so they carry the
// lexical signal the Naïve-Bayes classifier learns.
func Review(rng *dist.RNG, entityName string, sentences int) string {
	var b strings.Builder
	WriteReview(&b, rng, entityName, sentences)
	return b.String()
}

// Boilerplate generates non-review informational text mentioning nothing
// sentiment-laden: directory blurbs, hours, announcements.
func Boilerplate(rng *dist.RNG, sentences int) string {
	var b strings.Builder
	WriteBoilerplate(&b, rng, sentences)
	return b.String()
}
