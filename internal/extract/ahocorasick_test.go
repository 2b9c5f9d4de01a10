package extract

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/entity"
)

func TestAhoCorasickValidation(t *testing.T) {
	if _, err := NewAhoCorasick(nil, nil); err == nil {
		t.Error("empty patterns should fail")
	}
	if _, err := NewAhoCorasick([]string{"a"}, []int{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewAhoCorasick([]string{"a", ""}, []int{1, 2}); err == nil {
		t.Error("empty pattern should fail")
	}
}

func TestAhoCorasickBasic(t *testing.T) {
	ac, err := NewAhoCorasick([]string{"he", "she", "his", "hers"}, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	matches := ac.FindAll("ushers")
	vals := make([]int, len(matches))
	for i, m := range matches {
		vals[i] = m.Value
	}
	sort.Ints(vals)
	// "ushers" contains "she" (1-4), "he" (2-4), "hers" (2-6).
	if !reflect.DeepEqual(vals, []int{1, 2, 4}) {
		t.Errorf("values = %v, want [1 2 4]", vals)
	}
}

func TestAhoCorasickOverlapping(t *testing.T) {
	ac, _ := NewAhoCorasick([]string{"aa", "aaa"}, []int{1, 2})
	matches := ac.FindAll("aaaa")
	// "aa" at 0-2,1-3,2-4 and "aaa" at 0-3,1-4: five hits.
	if len(matches) != 5 {
		t.Errorf("got %d matches, want 5: %v", len(matches), matches)
	}
}

func TestAhoCorasickFindValuesDedup(t *testing.T) {
	ac, _ := NewAhoCorasick([]string{"x"}, []int{7})
	got := ac.FindValues("xxxx")
	if !reflect.DeepEqual(got, []int{7}) {
		t.Errorf("FindValues = %v", got)
	}
}

func TestAhoCorasickNoMatch(t *testing.T) {
	ac, _ := NewAhoCorasick([]string{"needle"}, []int{1})
	if got := ac.FindAll(strings.Repeat("haystack ", 100)); len(got) != 0 {
		t.Errorf("unexpected matches: %v", got)
	}
}

func TestAhoCorasickMatchEndOffsets(t *testing.T) {
	ac, _ := NewAhoCorasick([]string{"cat"}, []int{1})
	matches := ac.FindAll("a cat and a cat")
	if len(matches) != 2 || matches[0].End != 5 || matches[1].End != 15 {
		t.Errorf("matches = %v", matches)
	}
}

func TestPhoneAutomatonAgreesWithRegexPath(t *testing.T) {
	db, err := entity.Generate(entity.Config{Domain: entity.Hotels, N: 100, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := PhoneAutomaton(db)
	if err != nil {
		t.Fatal(err)
	}
	e2, e9, e40 := db.Entities[2], db.Entities[9], db.Entities[40]
	text := "Contact " + phoneText(e2.Phone, entity.PhoneParens) + " or " + phoneText(e9.Phone, entity.PhoneDotted) +
		" or even " + string(e40.Phone) + " for bookings. Unrelated: (999) 111-0000."

	regexIDs := MatchPhones(db, text)
	acIDs := ac.FindValues(text)
	sort.Ints(regexIDs)
	sort.Ints(acIDs)
	if !reflect.DeepEqual(regexIDs, acIDs) {
		t.Errorf("regex path %v != automaton path %v", regexIDs, acIDs)
	}
	if len(acIDs) != 3 {
		t.Errorf("expected 3 matches, got %v", acIDs)
	}
}

func TestPhoneAutomatonEmptyDB(t *testing.T) {
	db, _ := entity.Generate(entity.Config{Domain: entity.Books, N: 5, Seed: 22})
	if _, err := PhoneAutomaton(db); err == nil {
		t.Error("book db (no phones) should fail")
	}
}
