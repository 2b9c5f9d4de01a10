package entity

import "testing"

// The byte-key lookups must agree with the string lookups on every
// entity and on misses, without allocating.

func TestLookupPhoneKeyMatchesLookupPhone(t *testing.T) {
	for _, d := range []Domain{Hotels, Restaurants, Books} {
		db, err := Generate(Config{Domain: d, N: 300, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{"", "0000000000", "2125550000", "212555000", "21255500000", "(212) 555-0000"}
		for _, e := range db.Entities {
			keys = append(keys, string(e.Phone))
		}
		for _, k := range keys {
			wantID, wantOK := db.LookupPhone(CanonicalPhone(k))
			gotID, gotOK := db.LookupPhoneKey([]byte(k))
			if gotID != wantID || gotOK != wantOK {
				t.Fatalf("%s: LookupPhoneKey(%q) = (%d, %v), LookupPhone = (%d, %v)", d, k, gotID, gotOK, wantID, wantOK)
			}
		}
	}
}

func TestLookupISBNKeyMatchesLookupISBN(t *testing.T) {
	for _, d := range []Domain{Books, Banks} {
		db, err := Generate(Config{Domain: d, N: 300, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{"", "0000000000", "9780000000000", "123", "978000000000X"}
		for _, e := range db.Entities {
			if e.ISBN10 != "" {
				keys = append(keys, e.ISBN10, e.ISBN13, e.ISBN10[:9]+"0", e.ISBN13[:12]+"0")
			}
		}
		hits := 0
		for _, k := range keys {
			wantID, wantOK := db.LookupISBN(k)
			gotID, gotOK := db.LookupISBNKey([]byte(k))
			if gotID != wantID || gotOK != wantOK {
				t.Fatalf("%s: LookupISBNKey(%q) = (%d, %v), LookupISBN = (%d, %v)", d, k, gotID, gotOK, wantID, wantOK)
			}
			if gotOK {
				hits++
			}
		}
		if d == Books && hits < 2*db.N() {
			t.Fatalf("books: %d key hits, want at least %d", hits, 2*db.N())
		}
	}
}

func TestLookupKeysAllocs(t *testing.T) {
	phones, _ := Generate(Config{Domain: Banks, N: 100, Seed: 9})
	books, _ := Generate(Config{Domain: Books, N: 100, Seed: 9})
	hit, miss := []byte(phones.Entities[5].Phone), []byte("0000000000")
	isbn10, isbn13 := []byte(books.Entities[5].ISBN10), []byte(books.Entities[6].ISBN13)
	allocs := testing.AllocsPerRun(100, func() {
		phones.LookupPhoneKey(hit)
		phones.LookupPhoneKey(miss)
		books.LookupISBNKey(isbn10)
		books.LookupISBNKey(isbn13)
		books.LookupISBNKey(miss)
	})
	if allocs != 0 {
		t.Errorf("key lookups allocs/op = %v, want 0", allocs)
	}
}

func TestLookupHomepageKeyMatchesLookupHomepage(t *testing.T) {
	db, err := Generate(Config{Domain: Restaurants, N: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{"", "http://", "HTTPS://Nowhere.example/", " http://x.example/?q=1#f", "http://café.example/", "ftp://x.example"}
	for _, e := range db.Entities {
		if e.Homepage != "" {
			urls = append(urls, e.Homepage, "HTTPS://"+e.Homepage[len("http://"):]+"/?ref=1")
		}
	}
	hits := 0
	for _, u := range urls {
		key := AppendCanonicalURL([]byte("prefix:"), []byte(u))
		if got, want := string(key), "prefix:"+CanonicalURL(u); got != want {
			t.Fatalf("AppendCanonicalURL(%q) = %q, want %q", u, got, want)
		}
		wantID, wantOK := db.LookupHomepage(u)
		gotID, gotOK := db.LookupHomepageKey(key[len("prefix:"):])
		if gotID != wantID || gotOK != wantOK {
			t.Fatalf("LookupHomepageKey(%q) = (%d, %v), LookupHomepage = (%d, %v)", u, gotID, gotOK, wantID, wantOK)
		}
		if gotOK {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no homepage found; the test exercises only misses")
	}
}

func TestASCIIFoldEq(t *testing.T) {
	cases := []struct {
		b, s string
		want bool
	}{
		{"HTTP://", "http://", true},
		{"http://", "HTTP://", true},
		{"hTtPs://", "https://", true},
		{"http:/", "http://", false},
		{"hxxp://", "http://", false},
		{"", "", true},
	}
	for _, c := range cases {
		if got := asciiFoldEq([]byte(c.b), c.s); got != c.want {
			t.Errorf("asciiFoldEq(%q, %q) = %v, want %v", c.b, c.s, got, c.want)
		}
	}
}

// LookupPhone returns the entity ID owning the given canonical phone.
func (db *DB) LookupPhone(p CanonicalPhone) (int, bool) {
	id, ok := db.byPhone[p]
	return id, ok
}

// LookupISBN returns the entity ID owning the given bare ISBN
// (10 or 13 form).
func (db *DB) LookupISBN(isbn string) (int, bool) {
	id, ok := db.byISBN[normalizeISBN(isbn)]
	return id, ok
}

// LookupHomepage returns the entity ID whose homepage canonicalizes to
// the same key as u.
func (db *DB) LookupHomepage(u string) (int, bool) {
	id, ok := db.byHomepage[CanonicalURL(u)]
	return id, ok
}
