package entity

import (
	"fmt"
	"strings"
)

// ISBN10CheckDigit computes the ISBN-10 check character for the first
// nine digits. It returns an error if body is not exactly nine ASCII
// digits. The check character is '0'–'9' or 'X'.
func ISBN10CheckDigit(body string) (byte, error) {
	if len(body) != 9 {
		return 0, fmt.Errorf("entity: ISBN-10 body must be 9 digits, got %q", body)
	}
	sum := 0
	for i := 0; i < 9; i++ {
		c := body[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("entity: ISBN-10 body has non-digit %q", body)
		}
		sum += int(c-'0') * (10 - i)
	}
	r := (11 - sum%11) % 11
	if r == 10 {
		return 'X', nil
	}
	return byte('0' + r), nil
}

// ISBN13CheckDigit computes the ISBN-13 check digit for the first twelve
// digits. It returns an error if body is not exactly twelve ASCII digits.
func ISBN13CheckDigit(body string) (byte, error) {
	if len(body) != 12 {
		return 0, fmt.Errorf("entity: ISBN-13 body must be 12 digits, got %q", body)
	}
	sum := 0
	for i := 0; i < 12; i++ {
		c := body[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("entity: ISBN-13 body has non-digit %q", body)
		}
		d := int(c - '0')
		if i%2 == 1 {
			d *= 3
		}
		sum += d
	}
	return byte('0' + (10-sum%10)%10), nil
}

// ValidISBN10 reports whether s (digits plus optional final 'X'/'x',
// hyphens and spaces ignored) is a checksum-valid ISBN-10.
func ValidISBN10(s string) bool {
	clean := normalizeISBN(s)
	if len(clean) != 10 {
		return false
	}
	check, err := ISBN10CheckDigit(clean[:9])
	if err != nil {
		return false
	}
	last := clean[9]
	if last == 'x' {
		last = 'X'
	}
	return last == check
}

// ValidISBN13 reports whether s (hyphens and spaces ignored) is a
// checksum-valid ISBN-13.
//
//repro:testonly-ok extract's regex oracle tests
func ValidISBN13(s string) bool {
	clean := normalizeISBN(s)
	if len(clean) != 13 {
		return false
	}
	check, err := ISBN13CheckDigit(clean[:12])
	if err != nil {
		return false
	}
	return clean[12] == check
}

// ISBN10To13 converts a valid ISBN-10 into its 978-prefixed ISBN-13
// form. It returns an error if the input is not a valid ISBN-10.
//
//repro:testonly-ok extract's regex oracle tests
func ISBN10To13(isbn10 string) (string, error) {
	if !ValidISBN10(isbn10) {
		return "", fmt.Errorf("entity: %q is not a valid ISBN-10", isbn10)
	}
	body := "978" + normalizeISBN(isbn10)[:9]
	check, err := ISBN13CheckDigit(body)
	if err != nil {
		return "", err
	}
	return body + string(check), nil
}

// normalizeISBN strips hyphens and spaces and upper-cases a trailing x.
func normalizeISBN(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		case c == 'x' || c == 'X':
			b.WriteByte('X')
		case c == '-' || c == ' ':
			// skip separators
		default:
			b.WriteByte(c) // leave invalid chars; validation will reject
		}
	}
	return b.String()
}

// AppendISBN13 appends a bare 13-digit ISBN to dst with conventional
// hyphens (978-X-XXXX-XXXX-X) and returns the extended slice. Purely
// cosmetic; the extractor normalizes back. Any other length appends
// isbn as is. It allocates only when dst lacks capacity.
//
//repro:noalloc
func AppendISBN13(dst []byte, isbn string) []byte {
	if len(isbn) != 13 {
		return append(dst, isbn...)
	}
	dst = append(dst, isbn[:3]...)
	dst = append(dst, '-', isbn[3], '-')
	dst = append(dst, isbn[4:8]...)
	dst = append(dst, '-')
	dst = append(dst, isbn[8:12]...)
	return append(dst, '-', isbn[12])
}
