package extract

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/entity"
)

// isbnText renders a bare ISBN-13 hyphenated.
func isbnText(isbn13 string) string {
	return string(entity.AppendISBN13(nil, isbn13))
}

func TestISBNsRequiresMarker(t *testing.T) {
	// Valid ISBN-10 but no "ISBN" marker nearby: rejected.
	if got := ISBNs("the code 0306406152 appears here"); len(got) != 0 {
		t.Errorf("matched without marker: %v", got)
	}
	// Marker present: accepted.
	got := ISBNs("ISBN: 0306406152 (hardcover)")
	if !reflect.DeepEqual(got, []string{"0306406152"}) {
		t.Errorf("ISBNs = %v", got)
	}
}

func TestISBNsMarkerCaseInsensitive(t *testing.T) {
	for _, marker := range []string{"isbn", "Isbn", "ISBN", "eISBN"} {
		text := marker + " 0306406152"
		if got := ISBNs(text); len(got) != 1 {
			t.Errorf("marker %q: ISBNs = %v", marker, got)
		}
	}
}

func TestISBNsMarkerWindow(t *testing.T) {
	// Marker far outside the window: rejected.
	text := "ISBN" + strings.Repeat(" filler", 30) + " 0306406152"
	if got := ISBNs(text); len(got) != 0 {
		t.Errorf("marker outside window should not match: %v", got)
	}
	// Marker just inside the window after the match also counts.
	text2 := "0306406152 is the ISBN"
	if got := ISBNs(text2); len(got) != 1 {
		t.Errorf("marker after match should count: %v", got)
	}
}

func TestISBNsChecksumRejected(t *testing.T) {
	if got := ISBNs("ISBN 0306406153"); len(got) != 0 { // bad check digit
		t.Errorf("invalid checksum matched: %v", got)
	}
	if got := ISBNs("ISBN 9780306406156"); len(got) != 0 {
		t.Errorf("invalid ISBN-13 checksum matched: %v", got)
	}
}

func TestISBNsHyphenatedForms(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"ISBN 0-306-40615-2", "0306406152"},
		{"ISBN-13: 978-0-306-40615-7", "9780306406157"},
		{"ISBN 978 0 306 40615 7", "9780306406157"},
		{"ISBN 097522980X", "097522980X"},
		{"ISBN 0-9752298-0-x", "097522980X"},
	}
	for _, c := range cases {
		got := ISBNs(c.text)
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("ISBNs(%q) = %v, want [%s]", c.text, got, c.want)
		}
	}
}

func TestISBNsDeduplicated(t *testing.T) {
	got := ISBNs("ISBN 0306406152 and again ISBN 0-306-40615-2")
	if len(got) != 1 {
		t.Errorf("duplicate forms should dedup: %v", got)
	}
}

func TestISBNsMultiple(t *testing.T) {
	got := ISBNs("ISBN 0306406152; ISBN 9780306406157; ISBN 097522980X")
	if len(got) != 3 {
		t.Errorf("ISBNs = %v, want 3 values", got)
	}
}

func TestMatchISBNs(t *testing.T) {
	db, err := entity.Generate(entity.Config{Domain: entity.Books, N: 30, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	b3, b7 := db.Entities[3], db.Entities[7]
	text := "Catalog: ISBN " + b3.ISBN10 + " — also ISBN " + isbnText(b7.ISBN13)
	got := MatchISBNs(db, text)
	if !reflect.DeepEqual(got, []int{3, 7}) {
		t.Errorf("MatchISBNs = %v, want [3 7]", got)
	}
}

func TestMatchISBNsBothFormsSameEntity(t *testing.T) {
	db, _ := entity.Generate(entity.Config{Domain: entity.Books, N: 5, Seed: 13})
	b := db.Entities[1]
	text := "ISBN-10 " + b.ISBN10 + " / ISBN-13 " + b.ISBN13
	got := MatchISBNs(db, text)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("both forms should resolve to one entity: %v", got)
	}
}
