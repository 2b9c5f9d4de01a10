package extract

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/entity"
)

// scanPhones runs the phone scanner over text and returns the distinct
// phones in first-appearance order: Phones' contract.
func scanPhones(text []byte) []entity.CanonicalPhone {
	var out []entity.CanonicalPhone
	seen := make(map[entity.CanonicalPhone]bool)
	var sc phoneScan
	for sc.next(text) {
		p := entity.CanonicalPhone(sc.key[:])
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// scanISBNSpans returns the ISBN scanner's candidate spans, checking
// each candidate's key against the oracle's separator-stripped form.
func scanISBNSpans(t *testing.T, text []byte) [][]int {
	var out [][]int
	var sc isbnScan
	for {
		lo, hi, ok := sc.next(text)
		if !ok {
			return out
		}
		out = append(out, []int{lo, hi})
		want := strings.ToUpper(strings.NewReplacer("-", "", " ", "").Replace(string(text[lo:hi])))
		if got := string(sc.key[:sc.n]); got != want {
			t.Fatalf("text %q span [%d,%d): key %q, want %q", text, lo, hi, got, want)
		}
		if v, w := validISBN(sc.key[:sc.n]), entity.ValidISBN10(want) || entity.ValidISBN13(want); v != w {
			t.Fatalf("text %q: validISBN(%q) = %v, entity says %v", text, want, v, w)
		}
	}
}

// checkScanVsRegex is the differential property: the scanner's phones
// are Phones(text), its ISBN candidate spans are isbnCandidateRe's,
// and on ASCII text its marker test is hasISBNMarker's.
func checkScanVsRegex(t *testing.T, text []byte) {
	t.Helper()
	if got, want := scanPhones(text), Phones(string(text)); !reflect.DeepEqual(got, want) {
		t.Fatalf("text %q: scanner phones %q, regex %q", text, got, want)
	}
	got, want := scanISBNSpans(t, text), isbnCandidateRe.FindAllIndex(text, -1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("text %q: scanner ISBN spans %v, regex %v", text, got, want)
	}
	if isASCII(text) {
		upper := strings.ToUpper(string(text))
		for _, sp := range got {
			if m, w := markerNear(text, sp[0], sp[1]), hasISBNMarker(upper, sp[0], sp[1]); m != w {
				t.Fatalf("text %q span %v: markerNear %v, hasISBNMarker %v", text, sp, m, w)
			}
		}
	}
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// scanEdgeCases seed FuzzScanVsRegex (and so run on every go test):
// the grammar's boundary shapes — prefixes, parens, separators, word
// boundaries, the ISBN-13 prefix fallback and 'X'.
var scanEdgeCases = []string{
	"",
	"+1 (415) 555-1234",
	"+1-415-555-1234",
	"+14155551234",
	"1 415 555 1234",
	"1415.555.1234",
	"+2 415-555-1234",
	"++1 415-555-1234",
	"(415)555-1234",
	"(415) 555-1234",
	"(415)-555-1234",
	"((415) 555-1234",
	"(415 555-1234",
	"(115) 555-1234",
	"415-155-1234",
	"415-555-12345",
	"415-555-1234_",
	"415-555-1234x",
	"a415-555-1234",
	"4155551234",
	"_4155551234",
	"4155551234_",
	"41555512345",
	"1234155551234",
	"2345678901-555-1234",
	"415-555-1234 415-555-1234",
	"415-555-1234415-555-1234",
	"1-(415) 555-1234",
	"1--415-555-1234",
	"415--555-1234",
	"415 555 1234 and 415.555.1234",
	"ISBN 0-306-40615-2",
	"ISBN 978-0-306-40615-7",
	"978-0306406157",
	"978 0 306 40615 7",
	"9780306406157",
	"978030640615",
	"97803064061577",
	"979-0-306-40615-7",
	"977-0-306-40615-7",
	"isbn 080442957X",
	"isbn 080442957x",
	"isbn 080442957X_",
	"isbn 080442957-X",
	"isbn 080442957--X",
	"isbn 0-8044-2957-X9",
	"9780804429X",
	"978-080442957X",
	"_0306406152",
	"0306406152_",
	"a0306406152",
	"0 3 0 6 4 0 6 1 5 2",
	"0--306406152",
	"ISBN 0306406152 0306406152",
	"03064061520306406152",
	"ISBN of something. " + strings.Repeat("x", 60) + " 0306406152",
	"0306406152 " + strings.Repeat("y", 40) + "iSbN",
	"ıSBN 0306406152",
}

// TestScanVsRegexRandomized drives the differential property over
// random strings from an alphabet dense in the grammar's bytes.
func TestScanVsRegexRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	alphabet := []string{
		"0", "1", "2", "4", "5", "7", "8", "9", "9", "7", "1", "0",
		"+", "(", ")", "-", ".", " ", " ", "x", "X", "_", "a", "é",
		"978", "979", "+1", "ISBN", "isbn", "\n",
	}
	var b strings.Builder
	for trial := 0; trial < 20000; trial++ {
		b.Reset()
		for n := r.Intn(40); n >= 0; n-- {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		checkScanVsRegex(t, []byte(b.String()))
	}
}

func FuzzScanVsRegex(f *testing.F) {
	for _, c := range scanEdgeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		checkScanVsRegex(t, text)
	})
}

func TestValidISBNMatchesEntity(t *testing.T) {
	db, err := entity.Generate(entity.Config{Domain: entity.Books, N: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range db.Entities {
		for _, k := range []string{e.ISBN10, e.ISBN13} {
			// Every check character, the right one among them.
			for _, last := range "0123456789X" {
				v := k[:len(k)-1] + string(last)
				want := entity.ValidISBN10(v)
				if len(v) == 13 {
					want = entity.ValidISBN13(v)
				}
				if got := validISBN([]byte(v)); got != want || v == k && !got {
					t.Fatalf("validISBN(%q) = %v, entity says %v", v, got, want)
				}
			}
		}
	}
	for _, k := range []string{"", "123", "978030640615X"} {
		if validISBN([]byte(k)) {
			t.Errorf("validISBN(%q) = true", k)
		}
	}
}

// TestNewSessionEmptyDatabase: a database with no phones or ISBNs
// yields working sessions that find no key mentions, as the oracle
// does.
func TestNewSessionEmptyDatabase(t *testing.T) {
	page := []byte("<p>Call (415) 555-1234. ISBN 0-306-40615-2</p>")
	for _, d := range []entity.Domain{entity.Banks, entity.Books} {
		x, err := New(&entity.DB{Domain: d}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := x.NewSession()
		if err != nil {
			t.Fatalf("%s: NewSession on an empty database: %v", d, err)
		}
		if got, want := sess.Page(page), x.Page(page); len(got) != 0 || len(want) != 0 {
			t.Errorf("%s: session %v, oracle %v, want no mentions", d, got, want)
		}
	}
}
