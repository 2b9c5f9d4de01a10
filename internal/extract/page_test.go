package extract

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/textgen"
)

func trainedClassifier(t *testing.T) *classify.NaiveBayes {
	t.Helper()
	rng := dist.NewRNG(99)
	nb := classify.NewNaiveBayes(1)
	for i := 0; i < 200; i++ {
		nb.TrainBytes([]byte(reviewText(rng, "Some Place", 5)), true)
		nb.TrainBytes([]byte(boilerplateText(rng, 5)), false)
	}
	return nb
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil db should fail")
	}
	db, _ := entity.Generate(entity.Config{Domain: entity.Restaurants, N: 5, Seed: 1})
	if _, err := New(db, classify.NewNaiveBayes(1)); err == nil {
		t.Error("untrained classifier should fail")
	}
	if _, err := New(db, nil); err != nil {
		t.Errorf("nil classifier should be allowed: %v", err)
	}
}

func TestPagePhoneAndHomepage(t *testing.T) {
	db, _ := entity.Generate(entity.Config{Domain: entity.Restaurants, N: 50, Seed: 2})
	x, err := New(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	var target entity.Entity
	for _, e := range db.Entities {
		if e.Homepage != "" {
			target = e
			break
		}
	}
	html := fmt.Sprintf(`<html><body>
	<h1>%s</h1>
	<p>Phone: %s</p>
	<a href="%s">Website</a>
	<a href="http://unrelated.example.org/">other</a>
	</body></html>`, target.Name, phoneText(target.Phone, entity.PhoneParens), target.Homepage)

	mentions := x.Page([]byte(html))
	var gotPhone, gotHome bool
	for _, m := range mentions {
		if m.EntityID == target.ID && m.Attr == entity.AttrPhone {
			gotPhone = true
		}
		if m.EntityID == target.ID && m.Attr == entity.AttrHomepage {
			gotHome = true
		}
	}
	if !gotPhone || !gotHome {
		t.Errorf("mentions = %v; phone=%v home=%v", mentions, gotPhone, gotHome)
	}
}

func TestPagePhoneInsideMarkupAttrsIgnored(t *testing.T) {
	// A phone hidden in an attribute value is not page text.
	db, _ := entity.Generate(entity.Config{Domain: entity.Banks, N: 5, Seed: 3})
	e := db.Entities[0]
	x, _ := New(db, nil)
	html := `<div data-note="` + phoneText(e.Phone, entity.PhoneParens) + `">no phone in text</div>`
	for _, m := range x.Page([]byte(html)) {
		if m.Attr == entity.AttrPhone {
			t.Errorf("phone extracted from attribute: %v", m)
		}
	}
}

func TestPageBooks(t *testing.T) {
	db, _ := entity.Generate(entity.Config{Domain: entity.Books, N: 20, Seed: 4})
	x, _ := New(db, nil)
	b := db.Entities[4]
	html := fmt.Sprintf(`<html><body><h2>%s</h2><p>ISBN: %s</p></body></html>`,
		b.Name, isbnText(b.ISBN13))
	mentions := x.Page([]byte(html))
	if len(mentions) != 1 || mentions[0].EntityID != 4 || mentions[0].Attr != entity.AttrISBN {
		t.Errorf("mentions = %v", mentions)
	}
}

func TestPageReviewDetection(t *testing.T) {
	db, _ := entity.Generate(entity.Config{Domain: entity.Restaurants, N: 10, Seed: 5})
	nb := trainedClassifier(t)
	x, err := New(db, nb)
	if err != nil {
		t.Fatal(err)
	}
	e := db.Entities[0]
	rng := dist.NewRNG(7)

	reviewPage := fmt.Sprintf(`<html><body><h1>%s</h1><p>%s</p><p>%s</p></body></html>`,
		e.Name, phoneText(e.Phone, entity.PhoneParens), reviewText(rng, e.Name, 8))
	infoPage := fmt.Sprintf(`<html><body><h1>%s</h1><p>%s</p><p>%s</p></body></html>`,
		e.Name, phoneText(e.Phone, entity.PhoneParens), boilerplateText(rng, 8))

	var reviewHit, infoHit bool
	for _, m := range x.Page([]byte(reviewPage)) {
		if m.Attr == entity.AttrReview && m.EntityID == e.ID {
			reviewHit = true
		}
	}
	for _, m := range x.Page([]byte(infoPage)) {
		if m.Attr == entity.AttrReview {
			infoHit = true
		}
	}
	if !reviewHit {
		t.Error("review page not detected")
	}
	if infoHit {
		t.Error("boilerplate page classified as review")
	}
}

func TestPageReviewRequiresPhoneMatch(t *testing.T) {
	// §3.2: review detection runs over pages containing a matching
	// restaurant phone; a review-ish page with no phone yields nothing.
	db, _ := entity.Generate(entity.Config{Domain: entity.Restaurants, N: 10, Seed: 6})
	x, _ := New(db, trainedClassifier(t))
	rng := dist.NewRNG(8)
	html := "<html><body><p>" + reviewText(rng, "Unknown Cafe", 8) + "</p></body></html>"
	if mentions := x.Page([]byte(html)); len(mentions) != 0 {
		t.Errorf("review without phone should yield nothing: %v", mentions)
	}
}

func TestPageNoReviewAttrForNonRestaurants(t *testing.T) {
	db, _ := entity.Generate(entity.Config{Domain: entity.Banks, N: 10, Seed: 7})
	x, _ := New(db, trainedClassifier(t))
	e := db.Entities[0]
	rng := dist.NewRNG(9)
	html := fmt.Sprintf(`<html><body><p>%s</p><p>%s</p></body></html>`,
		phoneText(e.Phone, entity.PhoneParens), reviewText(rng, e.Name, 8))
	for _, m := range x.Page([]byte(html)) {
		if m.Attr == entity.AttrReview {
			t.Errorf("review mention for a non-review domain: %v", m)
		}
	}
}

// reviewText and boilerplateText render textgen's review and
// boilerplate prose as strings: the labeled documents of these tests.
func reviewText(rng *dist.RNG, name string, sentences int) string {
	var b strings.Builder
	textgen.WriteReview(&b, rng, name, sentences)
	return b.String()
}

func boilerplateText(rng *dist.RNG, sentences int) string {
	var b strings.Builder
	textgen.WriteBoilerplate(&b, rng, sentences)
	return b.String()
}
