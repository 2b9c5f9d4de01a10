package entity

import (
	"strings"
	"testing"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Domain: "nope", N: 10}); err == nil {
		t.Error("invalid domain should fail")
	}
	if _, err := Generate(Config{Domain: Restaurants, N: 0}); err == nil {
		t.Error("N=0 should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Domain: Restaurants, N: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Domain: Restaurants, N: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Entities {
		if a.Entities[i] != b.Entities[i] {
			t.Fatalf("entity %d differs between same-seed runs", i)
		}
	}
	c, _ := Generate(Config{Domain: Restaurants, N: 100, Seed: 8})
	same := 0
	for i := range a.Entities {
		if a.Entities[i].Phone == c.Entities[i].Phone {
			same++
		}
	}
	if same == len(a.Entities) {
		t.Error("different seeds produced identical databases")
	}
}

func TestGenerateBusinessInvariants(t *testing.T) {
	db, err := Generate(Config{Domain: Banks, N: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if db.N() != 500 {
		t.Fatalf("N = %d", db.N())
	}
	phones := map[CanonicalPhone]bool{}
	withHomepage := 0
	for i, e := range db.Entities {
		if e.ID != i {
			t.Fatalf("entity %d has ID %d", i, e.ID)
		}
		if e.PopRank != i+1 {
			t.Fatalf("entity %d has PopRank %d", i, e.PopRank)
		}
		if !e.Phone.Valid() {
			t.Fatalf("entity %d invalid phone %q", i, e.Phone)
		}
		if phones[e.Phone] {
			t.Fatalf("duplicate phone %q", e.Phone)
		}
		phones[e.Phone] = true
		if e.Name == "" {
			t.Fatalf("entity %d has empty name", i)
		}
		if e.Homepage != "" {
			withHomepage++
			if !strings.HasPrefix(e.Homepage, "http://") {
				t.Fatalf("odd homepage %q", e.Homepage)
			}
		}
		if e.ISBN10 != "" || e.ISBN13 != "" {
			t.Fatalf("business entity %d has ISBN", i)
		}
	}
	frac := float64(withHomepage) / 500
	if frac < 0.75 || frac > 0.95 {
		t.Errorf("homepage fraction = %v, want ~0.85", frac)
	}
}

func TestGenerateBooksInvariants(t *testing.T) {
	db, err := Generate(Config{Domain: Books, N: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, e := range db.Entities {
		if !ValidISBN10(e.ISBN10) {
			t.Fatalf("entity %d invalid ISBN-10 %q", i, e.ISBN10)
		}
		if !ValidISBN13(e.ISBN13) {
			t.Fatalf("entity %d invalid ISBN-13 %q", i, e.ISBN13)
		}
		conv, err := ISBN10To13(e.ISBN10)
		if err != nil || conv != e.ISBN13 {
			t.Fatalf("entity %d ISBN forms disagree: %q vs %q", i, conv, e.ISBN13)
		}
		if seen[e.ISBN10] {
			t.Fatalf("duplicate ISBN %q", e.ISBN10)
		}
		seen[e.ISBN10] = true
		if e.Phone != "" {
			t.Fatalf("book entity %d has phone", i)
		}
	}
}

func TestLookupPhone(t *testing.T) {
	db, _ := Generate(Config{Domain: Hotels, N: 50, Seed: 3})
	for _, e := range db.Entities {
		id, ok := db.LookupPhone(e.Phone)
		if !ok || id != e.ID {
			t.Fatalf("LookupPhone(%q) = (%d, %v)", e.Phone, id, ok)
		}
	}
	if _, ok := db.LookupPhone("0000000000"); ok {
		t.Error("bogus phone should not resolve")
	}
}

func TestLookupISBNBothForms(t *testing.T) {
	db, _ := Generate(Config{Domain: Books, N: 50, Seed: 4})
	for _, e := range db.Entities {
		if id, ok := db.LookupISBN(e.ISBN10); !ok || id != e.ID {
			t.Fatalf("LookupISBN(%q) failed", e.ISBN10)
		}
		if id, ok := db.LookupISBN(e.ISBN13); !ok || id != e.ID {
			t.Fatalf("LookupISBN(%q) failed", e.ISBN13)
		}
		// Hyphenated forms must also resolve.
		hyphenated := string(AppendISBN13(nil, e.ISBN13))
		if id, ok := db.LookupISBN(hyphenated); !ok || id != e.ID {
			t.Fatalf("LookupISBN(%q) failed", hyphenated)
		}
	}
}

func TestLookupHomepage(t *testing.T) {
	db, _ := Generate(Config{Domain: Schools, N: 200, Seed: 5})
	found := 0
	for _, e := range db.Entities {
		if e.Homepage == "" {
			continue
		}
		found++
		for _, variant := range []string{
			e.Homepage,
			strings.TrimSuffix(e.Homepage, "/"),
			strings.Replace(e.Homepage, "http://", "https://", 1),
			strings.ToUpper(e.Homepage[:7]) + e.Homepage[7:],
		} {
			id, ok := db.LookupHomepage(variant)
			if !ok || id != e.ID {
				t.Fatalf("LookupHomepage(%q) = (%d, %v) for entity %d", variant, id, ok, e.ID)
			}
		}
	}
	if found == 0 {
		t.Fatal("no homepages generated")
	}
	if _, ok := db.LookupHomepage("http://nonexistent.example.org/"); ok {
		t.Error("bogus homepage should not resolve")
	}
}

func TestWithHomepage(t *testing.T) {
	db, _ := Generate(Config{Domain: Retail, N: 100, Seed: 6})
	ids := db.WithHomepage()
	for _, id := range ids {
		if db.Entities[id].Homepage == "" {
			t.Fatalf("WithHomepage returned entity %d with no homepage", id)
		}
	}
	count := 0
	for _, e := range db.Entities {
		if e.Homepage != "" {
			count++
		}
	}
	if count != len(ids) {
		t.Errorf("WithHomepage returned %d, expected %d", len(ids), count)
	}
}

func TestCanonicalURL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://www.foo.example.com/", "www.foo.example.com"},
		{"https://www.foo.example.com", "www.foo.example.com"},
		{"HTTP://WWW.Foo.example.com/", "www.foo.example.com"},
		{"http://foo.example.com/page?x=1", "foo.example.com/page"},
		{"http://foo.example.com/page#frag", "foo.example.com/page"},
		{"  http://foo.example.com/  ", "foo.example.com"},
	}
	for _, c := range cases {
		if got := CanonicalURL(c.in); got != c.want {
			t.Errorf("CanonicalURL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDomainHelpers(t *testing.T) {
	if len(AllDomains) != 9 {
		t.Errorf("AllDomains has %d entries", len(AllDomains))
	}
	if len(LocalBusinessDomains) != 8 {
		t.Errorf("LocalBusinessDomains has %d entries", len(LocalBusinessDomains))
	}
	for _, d := range AllDomains {
		if !d.Valid() {
			t.Errorf("domain %q invalid", d)
		}
		if d.Title() == "" {
			t.Errorf("domain %q has no title", d)
		}
	}
	if Domain("zzz").Valid() {
		t.Error("zzz should be invalid")
	}
	if Domain("zzz").Title() != "zzz" {
		t.Error("unknown domain title should echo")
	}
}

func TestAttrsFor(t *testing.T) {
	if got := AttrsFor(Books); len(got) != 1 || got[0] != AttrISBN {
		t.Errorf("Books attrs = %v", got)
	}
	if got := AttrsFor(Restaurants); len(got) != 3 {
		t.Errorf("Restaurants attrs = %v", got)
	}
	if got := AttrsFor(Banks); len(got) != 2 {
		t.Errorf("Banks attrs = %v", got)
	}
}

func TestParseDomain(t *testing.T) {
	d, err := ParseDomain("restaurants")
	if err != nil || d != Restaurants {
		t.Errorf("ParseDomain(restaurants) = %v, %v", d, err)
	}
	if _, err := ParseDomain("pizza"); err == nil {
		t.Error("unknown domain should fail")
	}
}
