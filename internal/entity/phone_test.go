package entity

import (
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

func TestCanonicalPhoneValid(t *testing.T) {
	valid := []CanonicalPhone{"4155551234", "2125559876", "9995552000"}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%q should be valid", p)
		}
	}
	invalid := []CanonicalPhone{"", "123", "41555512345", "0155551234", "4105551234x", "415555123a", "1155551234", "4151551234"}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%q should be invalid", p)
		}
	}
}

func TestPhoneFormats(t *testing.T) {
	p := CanonicalPhone("4155551234")
	for f, want := range map[PhoneForm]string{
		PhoneParens:   "(415) 555-1234",
		PhoneDashed:   "415-555-1234",
		PhoneDotted:   "415.555.1234",
		PhoneBare:     "4155551234",
		PhoneBare + 1: "4155551234", // unknown form: as is
	} {
		if got := string(p.Append([]byte("x"), f)); got != "x"+want {
			t.Errorf("Append(form %d) = %q, want %q", f, got, "x"+want)
		}
	}
	// Short phones pass through unformatted.
	if got := string(CanonicalPhone("123").Append(nil, PhoneParens)); got != "123" {
		t.Errorf("short Append = %q", got)
	}
	buf := make([]byte, 0, 16)
	if n := testing.AllocsPerRun(100, func() { buf = p.Append(buf[:0], PhoneParens) }); n != 0 {
		t.Errorf("Append into a large enough buffer allocates %.0f times", n)
	}
}

func TestNormalizePhone(t *testing.T) {
	cases := []struct {
		in   string
		want CanonicalPhone
		ok   bool
	}{
		{"(415) 555-1234", "4155551234", true},
		{"415-555-1234", "4155551234", true},
		{"415.555.1234", "4155551234", true},
		{"4155551234", "4155551234", true},
		{"+1 415 555 1234", "4155551234", true},
		{"1-415-555-1234", "4155551234", true},
		{"call 415 555 1234 now", "4155551234", true},
		{"555-1234", "", false},         // 7 digits
		{"(015) 555-1234", "", false},   // bad area code
		{"(415) 155-1234", "", false},   // bad exchange
		{"41555512345", "", false},      // 11 digits, no leading 1
		{"2-415-555-1234", "", false},   // 11 digits, leading 2
		{"415-555-1234 x89", "", false}, // extension adds digits
		{"", "", false},
	}
	for _, c := range cases {
		got, ok := NormalizePhone(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("NormalizePhone(%q) = (%q, %v), want (%q, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestNormalizeRoundTrip(t *testing.T) {
	// Every formatted rendering of a random phone must normalize back.
	f := func(seed uint64) bool {
		rng := dist.NewRNG(seed)
		p := RandomPhone(rng)
		for form := PhoneParens; form <= PhoneBare; form++ {
			s := string(p.Append(nil, form))
			got, ok := NormalizePhone(s)
			if !ok || got != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRandomPhoneAlwaysValid(t *testing.T) {
	rng := dist.NewRNG(1)
	for i := 0; i < 10000; i++ {
		if p := RandomPhone(rng); !p.Valid() {
			t.Fatalf("RandomPhone produced invalid %q", p)
		}
	}
}
