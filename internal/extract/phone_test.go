package extract

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/entity"
)

// phoneText renders p in display form f.
func phoneText(p entity.CanonicalPhone, f entity.PhoneForm) string {
	return string(p.Append(nil, f))
}

func TestPhonesFormats(t *testing.T) {
	text := `Call (415) 555-1234 today, or fax 212-555-9876.
	Alt: 303.555.4567 and 808 555 2222, int'l +1 415 555 1234.`
	got := Phones(text)
	want := []entity.CanonicalPhone{"4155551234", "2125559876", "3035554567", "8085552222"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Phones = %v, want %v", got, want)
	}
}

func TestPhonesDeduplicated(t *testing.T) {
	text := "(415) 555-1234 also written 415-555-1234 and 415.555.1234"
	got := Phones(text)
	if len(got) != 1 || got[0] != "4155551234" {
		t.Errorf("Phones = %v, want single 4155551234", got)
	}
}

func TestPhonesRejectsNonNANP(t *testing.T) {
	for _, text := range []string{
		"(015) 555-1234", // area code starts with 0
		"(415) 155-1234", // exchange starts with 1
		"555-1234",       // 7 digits
		"no numbers here",
		"",
	} {
		if got := Phones(text); len(got) != 0 {
			t.Errorf("Phones(%q) = %v, want none", text, got)
		}
	}
}

func TestPhonesLongDigitRuns(t *testing.T) {
	// Digits embedded in longer runs must not match (boundary control):
	// an order ID that happens to contain a phone-shaped substring.
	if got := Phones("order 4155551234567"); len(got) != 0 {
		t.Errorf("matched inside long digit run: %v", got)
	}
	// ...but the ISBN-adjacent false-positive the paper discusses (§3.5)
	// IS possible for well-formatted 10-digit runs; accept bare
	// 415-555-1234 even mid-sentence.
	if got := Phones("id 415-555-1234 end"); len(got) != 1 {
		t.Errorf("formatted phone missed: %v", got)
	}
}

func TestMatchPhones(t *testing.T) {
	db, err := entity.Generate(entity.Config{Domain: entity.Restaurants, N: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e0, e5 := db.Entities[0], db.Entities[5]
	text := "Two places: " + phoneText(e0.Phone, entity.PhoneParens) + " and " + phoneText(e5.Phone, entity.PhoneDashed) +
		" but not (999) 999-9999."
	got := MatchPhones(db, text)
	if !reflect.DeepEqual(got, []int{0, 5}) {
		t.Errorf("MatchPhones = %v, want [0 5]", got)
	}
}

func TestMatchPhonesNoDuplicates(t *testing.T) {
	db, _ := entity.Generate(entity.Config{Domain: entity.Banks, N: 5, Seed: 10})
	e := db.Entities[2]
	text := phoneText(e.Phone, entity.PhoneParens) + " " + phoneText(e.Phone, entity.PhoneDotted) + " " + phoneText(e.Phone, entity.PhoneDashed)
	if got := MatchPhones(db, text); len(got) != 1 || got[0] != 2 {
		t.Errorf("MatchPhones = %v, want [2]", got)
	}
}

func TestPhonesRandomizedRoundTrip(t *testing.T) {
	rng := dist.NewRNG(11)
	for i := 0; i < 500; i++ {
		p := entity.RandomPhone(rng)
		var text string
		switch i % 4 {
		case 0:
			text = "Reach us at " + phoneText(p, entity.PhoneParens) + " any time."
		case 1:
			text = "tel: " + phoneText(p, entity.PhoneDashed)
		case 2:
			text = phoneText(p, entity.PhoneDotted) + " is the number"
		case 3:
			text = "Phone " + string(p[:3]) + " " + string(p[3:6]) + " " + string(p[6:])
		}
		got := Phones(text)
		if len(got) != 1 || got[0] != p {
			t.Fatalf("case %d: Phones(%q) = %v, want %q", i%4, text, got, p)
		}
	}
}
