package extract

// The regular-expression phone extractor: the test oracle the
// production scanner (scan.go) is held to.

import (
	"regexp"
	"sort"

	"repro/internal/entity"
)

// phoneRe matches the common separated US phone renderings:
// (415) 555-1234, 415-555-1234, 415.555.1234, 415 555 1234 and the
// +1-prefixed variants. Area code and exchange must start with 2–9 per
// NANP. The trailing word boundary prevents matching a prefix of a
// longer digit run.
var phoneRe = regexp.MustCompile(
	`(?:\+?1[-. ]?)?(?:\(([2-9][0-9]{2})\)[-. ]?|([2-9][0-9]{2})[-. ])([2-9][0-9]{2})[-. ]([0-9]{4})\b`)

// barePhoneRe matches an unseparated ten-digit run that is NANP-shaped.
// Word boundaries on both sides reject substrings of longer digit runs.
// The paper accepts this form too and discusses the resulting
// false-match risk in §3.5.
var barePhoneRe = regexp.MustCompile(`\b([2-9][0-9]{2})([2-9][0-9]{2})([0-9]{4})\b`)

// Phones returns the distinct canonical phone numbers found in text,
// ordered by first appearance.
func Phones(text string) []entity.CanonicalPhone {
	type hit struct {
		pos   int
		phone entity.CanonicalPhone
	}
	var hits []hit
	for _, loc := range phoneRe.FindAllStringSubmatchIndex(text, -1) {
		area := group(text, loc, 1)
		if area == "" {
			area = group(text, loc, 2)
		}
		if p, ok := entity.NormalizePhone(area + group(text, loc, 3) + group(text, loc, 4)); ok {
			hits = append(hits, hit{loc[0], p})
		}
	}
	for _, loc := range barePhoneRe.FindAllStringSubmatchIndex(text, -1) {
		if p, ok := entity.NormalizePhone(text[loc[0]:loc[1]]); ok {
			hits = append(hits, hit{loc[0], p})
		}
	}
	if len(hits) == 0 {
		return nil
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].pos < hits[j].pos })
	seen := make(map[entity.CanonicalPhone]struct{}, len(hits))
	out := make([]entity.CanonicalPhone, 0, len(hits))
	for _, h := range hits {
		if _, dup := seen[h.phone]; dup {
			continue
		}
		seen[h.phone] = struct{}{}
		out = append(out, h.phone)
	}
	return out
}

// group returns the text of capture group g from a SubmatchIndex result,
// or "" if the group did not participate in the match.
func group(text string, loc []int, g int) string {
	if loc[2*g] < 0 {
		return ""
	}
	return text[loc[2*g]:loc[2*g+1]]
}

// MatchPhones returns the IDs of database entities whose phone numbers
// appear in text, in first-appearance order without duplicates.
func MatchPhones(db *entity.DB, text string) []int {
	var out []int
	seen := make(map[int]struct{})
	for _, p := range Phones(text) {
		if id, ok := db.LookupPhoneKey([]byte(p)); ok {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	return out
}
