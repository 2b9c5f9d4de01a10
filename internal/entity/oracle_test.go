package entity

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/textgen"
)

// fmtHomepageURL is the strings.Map + fmt.Sprintf form homepageURL
// replaced.
func fmtHomepageURL(name string, i int) string {
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return -1
		}
	}, name)
	if len(slug) > 24 {
		slug = slug[:24]
	}
	return fmt.Sprintf("http://www.%s%d.example.com/", slug, i)
}

// fmtGenBooks is the fmt.Sprintf form of genBooks: the same draws, the
// ISBN-10 body zero-padded by "%09d" and converted by ISBN10To13.
func fmtGenBooks(db *DB, rng *dist.RNG, n int) {
	for i := 0; i < n; i++ {
		var isbn10, isbn13 string
		for {
			body := fmt.Sprintf("%09d", rng.Intn(1_000_000_000))
			check, err := ISBN10CheckDigit(body)
			if err != nil {
				continue
			}
			isbn10 = body + string(check)
			if _, dup := db.byISBN[isbn10]; dup {
				continue
			}
			conv, err := ISBN10To13(isbn10)
			if err != nil {
				continue
			}
			isbn13 = conv
			break
		}
		db.Entities = append(db.Entities, Entity{
			ID: i, Domain: Books, Name: textgen.BookTitle(rng),
			ISBN10: isbn10, ISBN13: isbn13, PopRank: i + 1,
		})
		db.byISBN[isbn10] = i
		db.byISBN[isbn13] = i
	}
}

// TestHomepageURLMatchesFmtOracle: generated names, plus names with
// upper case, punctuation, non-ASCII letters, invalid UTF-8 and more
// than 24 slug characters, give the old form's URL.
func TestHomepageURLMatchesFmtOracle(t *testing.T) {
	names := []string{"", "Joe's Diner", "ÉCOLE Café № 9", "a\xffb\xc3", strings.Repeat("AbC-1", 12), "日本"}
	rng := dist.NewRNG(5)
	for i := 0; i < 3000; i++ {
		names = append(names, textgen.BusinessName(rng, "restaurants"))
	}
	for i, name := range names {
		id := i * 7919
		if got, want := homepageURL(name, id), fmtHomepageURL(name, id); got != want {
			t.Errorf("homepageURL(%q, %d) = %q, want %q", name, id, got, want)
		}
	}
}

// TestGenBooksMatchesFmtOracle: genBooks draws and formats the same
// ISBNs and titles as the fmt form, leaving the RNG in the same place.
func TestGenBooksMatchesFmtOracle(t *testing.T) {
	const n = 3000
	got := &DB{Domain: Books, byISBN: map[string]int{}}
	want := &DB{Domain: Books, byISBN: map[string]int{}}
	gr, wr := dist.NewRNG(23), dist.NewRNG(23)
	genBooks(got, gr, n)
	fmtGenBooks(want, wr, n)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("genBooks differs from the fmt form")
	}
	if gr.Uint64() != wr.Uint64() {
		t.Error("the RNG streams diverged")
	}
}
