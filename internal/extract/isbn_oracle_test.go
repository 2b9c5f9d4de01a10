package extract

// The regular-expression ISBN extractor: the test oracle the production
// scanner (scan.go) is held to.

import (
	"regexp"
	"strings"

	"repro/internal/entity"
)

// isbnCandidateRe finds 10- or 13-digit runs with optional hyphen/space
// separators and an optional trailing X (ISBN-10 check character).
var isbnCandidateRe = regexp.MustCompile(
	`\b(?:97[89][- ]?)?[0-9](?:[- ]?[0-9]){8}[- ]?[0-9Xx]\b`)

// ISBNs returns the distinct checksum-valid ISBNs found in text that
// have the string "ISBN" (case-insensitive) within isbnWindow bytes of
// the match. Returned values are bare (separator-free) and keep their
// original 10- or 13-digit form.
func ISBNs(text string) []string {
	locs := isbnCandidateRe.FindAllStringIndex(text, -1)
	if len(locs) == 0 {
		return nil
	}
	upper := strings.ToUpper(text)
	var out []string
	seen := make(map[string]struct{})
	for _, loc := range locs {
		raw := text[loc[0]:loc[1]]
		clean := strings.Map(func(r rune) rune {
			switch {
			case r >= '0' && r <= '9':
				return r
			case r == 'x' || r == 'X':
				return 'X'
			default:
				return -1
			}
		}, raw)
		valid := (len(clean) == 10 && entity.ValidISBN10(clean)) ||
			(len(clean) == 13 && entity.ValidISBN13(clean))
		if !valid {
			continue
		}
		if !hasISBNMarker(upper, loc[0], loc[1]) {
			continue
		}
		if _, dup := seen[clean]; dup {
			continue
		}
		seen[clean] = struct{}{}
		out = append(out, clean)
	}
	return out
}

// hasISBNMarker reports whether "ISBN" occurs within the window around
// [start, end) in the upper-cased text.
func hasISBNMarker(upper string, start, end int) bool {
	lo := start - isbnWindow
	if lo < 0 {
		lo = 0
	}
	hi := end + isbnWindow
	if hi > len(upper) {
		hi = len(upper)
	}
	return strings.Contains(upper[lo:hi], "ISBN")
}

// MatchISBNs returns the IDs of database entities whose ISBN (either
// form) appears in text with an ISBN marker nearby.
func MatchISBNs(db *entity.DB, text string) []int {
	var out []int
	seen := make(map[int]struct{})
	for _, isbn := range ISBNs(text) {
		if id, ok := db.LookupISBNKey([]byte(isbn)); ok { // ISBNs returns bare keys
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	return out
}
