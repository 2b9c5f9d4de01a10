package entity

import (
	"fmt"

	"repro/internal/dist"
)

// CanonicalPhone is the normalized representation of a US phone number:
// exactly ten ASCII digits (NANP area code + exchange + subscriber).
type CanonicalPhone string

// Valid reports whether p is ten digits with NANP-legal leading digits
// (area code and exchange cannot start with 0 or 1).
func (p CanonicalPhone) Valid() bool {
	if len(p) != 10 {
		return false
	}
	for i := 0; i < 10; i++ {
		if p[i] < '0' || p[i] > '9' {
			return false
		}
	}
	return p[0] >= '2' && p[3] >= '2'
}

// Format renders the phone in the common (NPA) NXX-XXXX display form.
//
//repro:testonly-ok extract's and synth's tests render phones with it
func (p CanonicalPhone) Format() string {
	if len(p) != 10 {
		return string(p)
	}
	return fmt.Sprintf("(%s) %s-%s", p[:3], p[3:6], p[6:])
}

// FormatDashed renders NPA-NXX-XXXX.
//
//repro:testonly-ok extract's and synth's tests render phones with it
func (p CanonicalPhone) FormatDashed() string {
	if len(p) != 10 {
		return string(p)
	}
	return fmt.Sprintf("%s-%s-%s", p[:3], p[3:6], p[6:])
}

// FormatDotted renders NPA.NXX.XXXX.
//
//repro:testonly-ok extract's and synth's tests render phones with it
func (p CanonicalPhone) FormatDotted() string {
	if len(p) != 10 {
		return string(p)
	}
	return fmt.Sprintf("%s.%s.%s", p[:3], p[3:6], p[6:])
}

// NormalizePhone extracts the ten NANP digits from a formatted phone
// string, tolerating parentheses, dashes, dots, spaces and a leading
// +1/1 country code. It returns false if the input does not normalize
// to a NANP-valid ten-digit number.
//
//repro:testonly-ok extract's regex oracle tests
func NormalizePhone(s string) (CanonicalPhone, bool) {
	digits := make([]byte, 0, 11)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			digits = append(digits, c)
		}
	}
	if len(digits) == 11 && digits[0] == '1' {
		digits = digits[1:]
	}
	if len(digits) != 10 {
		return "", false
	}
	p := CanonicalPhone(digits)
	if !p.Valid() {
		return "", false
	}
	return p, true
}

// RandomPhone draws a NANP-valid phone number. Area codes are drawn from
// a fixed pool so that synthetic pages share realistic locality.
func RandomPhone(rng *dist.RNG) CanonicalPhone {
	var b [10]byte
	b[0] = byte('2' + rng.Intn(8))
	b[1] = byte('0' + rng.Intn(10))
	b[2] = byte('0' + rng.Intn(10))
	b[3] = byte('2' + rng.Intn(8))
	for i := 4; i < 10; i++ {
		b[i] = byte('0' + rng.Intn(10))
	}
	return CanonicalPhone(b[:])
}
