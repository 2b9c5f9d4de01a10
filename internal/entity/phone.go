package entity

import "repro/internal/dist"

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

// PhoneForm is a display form of a phone number.
type PhoneForm int

// Phone display forms, in the order the synthetic renderer draws them.
const (
	PhoneParens PhoneForm = iota // (NPA) NXX-XXXX
	PhoneDashed                  // NPA-NXX-XXXX
	PhoneDotted                  // NPA.NXX.XXXX
	PhoneBare                    // NPANXXXXXX
)

// phoneSeps holds each form's text before the area code, after it and
// after the exchange.
var phoneSeps = [...][3]string{
	PhoneParens: {"(", ") ", "-"},
	PhoneDashed: {"", "-", "-"},
	PhoneDotted: {"", ".", "."},
	PhoneBare:   {"", "", ""},
}

// Append appends p in display form f to dst and returns the extended
// slice. A phone that is not ten digits, or an unknown form, appends p
// as is. It allocates only when dst lacks capacity, so the renderer
// can append into its page buffer's spare capacity.
//
//repro:noalloc
func (p CanonicalPhone) Append(dst []byte, f PhoneForm) []byte {
	if len(p) != 10 || uint(f) >= uint(len(phoneSeps)) {
		return append(dst, p...)
	}
	s := &phoneSeps[f]
	dst = append(dst, s[0]...)
	dst = append(dst, p[:3]...)
	dst = append(dst, s[1]...)
	dst = append(dst, p[3:6]...)
	dst = append(dst, s[2]...)
	return append(dst, p[6:]...)
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
