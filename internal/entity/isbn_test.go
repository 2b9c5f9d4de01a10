package entity

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestISBN10CheckDigitKnown(t *testing.T) {
	// 0-306-40615-2 is the canonical example ISBN-10.
	c, err := ISBN10CheckDigit("030640615")
	if err != nil {
		t.Fatal(err)
	}
	if c != '2' {
		t.Errorf("check = %c, want 2", c)
	}
	// 097522980X carries an X check digit.
	c, err = ISBN10CheckDigit("097522980")
	if err != nil {
		t.Fatal(err)
	}
	if c != 'X' {
		t.Errorf("check = %c, want X", c)
	}
}

func TestISBN10CheckDigitValidation(t *testing.T) {
	if _, err := ISBN10CheckDigit("12345678"); err == nil {
		t.Error("short body should fail")
	}
	if _, err := ISBN10CheckDigit("12345678a"); err == nil {
		t.Error("non-digit body should fail")
	}
}

func TestISBN13CheckDigitKnown(t *testing.T) {
	// 978-0-306-40615-7 is the ISBN-13 of the canonical example.
	c, err := ISBN13CheckDigit("978030640615")
	if err != nil {
		t.Fatal(err)
	}
	if c != '7' {
		t.Errorf("check = %c, want 7", c)
	}
}

func TestISBN13CheckDigitValidation(t *testing.T) {
	if _, err := ISBN13CheckDigit("97803064061"); err == nil {
		t.Error("short body should fail")
	}
	if _, err := ISBN13CheckDigit("97803064061x"); err == nil {
		t.Error("non-digit body should fail")
	}
}

func TestValidISBN10(t *testing.T) {
	valid := []string{"0306406152", "0-306-40615-2", "097522980X", "0 9752298 0 x"}
	for _, s := range valid {
		if !ValidISBN10(s) {
			t.Errorf("ValidISBN10(%q) = false", s)
		}
	}
	invalid := []string{"0306406153", "030640615", "03064061522", "abcdefghij", ""}
	for _, s := range invalid {
		if ValidISBN10(s) {
			t.Errorf("ValidISBN10(%q) = true", s)
		}
	}
}

func TestValidISBN13(t *testing.T) {
	valid := []string{"9780306406157", "978-0-306-40615-7", "978 0 306 40615 7"}
	for _, s := range valid {
		if !ValidISBN13(s) {
			t.Errorf("ValidISBN13(%q) = false", s)
		}
	}
	invalid := []string{"9780306406156", "978030640615", "97803064061577", ""}
	for _, s := range invalid {
		if ValidISBN13(s) {
			t.Errorf("ValidISBN13(%q) = true", s)
		}
	}
}

func TestISBN10To13(t *testing.T) {
	got, err := ISBN10To13("0306406152")
	if err != nil {
		t.Fatal(err)
	}
	if got != "9780306406157" {
		t.Errorf("ISBN10To13 = %q, want 9780306406157", got)
	}
	if _, err := ISBN10To13("0306406153"); err == nil {
		t.Error("invalid ISBN-10 should fail conversion")
	}
}

func TestISBN10To13AlwaysValid(t *testing.T) {
	f := func(n uint32) bool {
		body := fmt.Sprintf("%09d", n%1_000_000_000)
		check, err := ISBN10CheckDigit(body)
		if err != nil {
			return false
		}
		isbn10 := body + string(check)
		if !ValidISBN10(isbn10) {
			return false
		}
		isbn13, err := ISBN10To13(isbn10)
		if err != nil {
			return false
		}
		return ValidISBN13(isbn13)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFormatISBN13(t *testing.T) {
	hyphenated := string(AppendISBN13([]byte("x"), "9780306406157"))
	if hyphenated != "x978-0-3064-0615-7" {
		t.Errorf("AppendISBN13 = %q", hyphenated)
	}
	// Hyphenated form must remain checksum-valid after normalization.
	if !ValidISBN13(hyphenated[1:]) {
		t.Error("formatted ISBN no longer validates")
	}
	if got := string(AppendISBN13(nil, "123")); got != "123" {
		t.Errorf("short input should pass through, got %q", got)
	}
	buf := make([]byte, 0, 17)
	if n := testing.AllocsPerRun(100, func() { buf = AppendISBN13(buf[:0], "9780306406157") }); n != 0 {
		t.Errorf("AppendISBN13 into a large enough buffer allocates %.0f times", n)
	}
}
