package entity

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/textgen"
)

// Entity is one structured entity in a domain database. Exactly one of
// the identifying attributes is populated for book entities (ISBN); local
// businesses carry Phone and usually Homepage.
type Entity struct {
	ID       int    // dense index within its DB, 0-based
	Domain   Domain // owning domain
	Name     string
	Phone    CanonicalPhone // local businesses; empty for books
	Homepage string         // canonical homepage URL; may be empty
	ISBN13   string         // books only: bare 13-digit ISBN
	ISBN10   string         // books only: bare 10-char ISBN
	Address  textgen.Address
	PopRank  int // 1 = most popular entity in the domain
}

// DB is an immutable entity database for one domain with lookup indices
// on every identifying attribute.
type DB struct {
	Domain   Domain
	Entities []Entity

	byPhone    map[CanonicalPhone]int
	byISBN     map[string]int // keys: both ISBN-10 and ISBN-13 forms
	byHomepage map[string]int // keys: canonical homepage host+path
}

// Config controls database generation.
type Config struct {
	Domain Domain
	N      int    // number of entities
	Seed   uint64 // generation seed
	// HomepageFraction is the share of entities that have a homepage at
	// all (tail businesses often have none). Default 0.85 when zero.
	HomepageFraction float64
}

// Generate builds a deterministic entity database. It returns an error
// for an invalid domain or non-positive N.
func Generate(cfg Config) (*DB, error) {
	if !cfg.Domain.Valid() {
		return nil, fmt.Errorf("entity: invalid domain %q", cfg.Domain)
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("entity: need N > 0, got %d", cfg.N)
	}
	hf := cfg.HomepageFraction
	if hf == 0 {
		hf = 0.85
	}
	rng := dist.NewRNG(cfg.Seed ^ 0xe17a_b1e5)
	db := &DB{Domain: cfg.Domain, Entities: make([]Entity, 0, cfg.N)}
	if cfg.Domain == Books {
		db.byISBN = make(map[string]int, 2*cfg.N) // ISBN-10 and ISBN-13 keys
		genBooks(db, rng, cfg.N)
	} else {
		db.byPhone = make(map[CanonicalPhone]int, cfg.N)
		db.byHomepage = make(map[string]int, int(hf*float64(cfg.N))+1)
		genBusinesses(db, rng, cfg.N, hf)
	}
	return db, nil
}

func genBooks(db *DB, rng *dist.RNG, n int) {
	for i := 0; i < n; i++ {
		// Draw distinct ISBN-10 bodies until unique.
		var isbn10, isbn13 string
		for {
			// The nine-digit body, zero-padded: "978" + body is the
			// ISBN-13 body.
			b := [13]byte{'9', '7', '8'}
			for v, j := rng.Intn(1_000_000_000), 11; j >= 3; v, j = v/10, j-1 {
				b[j] = byte('0' + v%10)
			}
			check10, err := ISBN10CheckDigit(string(b[3:12]))
			if err != nil {
				continue
			}
			isbn10 = string(b[3:12]) + string(check10)
			if _, dup := db.byISBN[isbn10]; dup {
				continue
			}
			check13, err := ISBN13CheckDigit(string(b[:12]))
			if err != nil {
				continue
			}
			b[12] = check13
			isbn13 = string(b[:])
			break
		}
		e := Entity{
			ID:      i,
			Domain:  Books,
			Name:    textgen.BookTitle(rng),
			ISBN10:  isbn10,
			ISBN13:  isbn13,
			PopRank: i + 1,
		}
		db.Entities = append(db.Entities, e)
		db.byISBN[isbn10] = i
		db.byISBN[isbn13] = i
	}
}

func genBusinesses(db *DB, rng *dist.RNG, n int, homepageFraction float64) {
	for i := 0; i < n; i++ {
		var phone CanonicalPhone
		for {
			phone = RandomPhone(rng)
			if _, dup := db.byPhone[phone]; !dup {
				break
			}
		}
		name := textgen.BusinessName(rng, string(db.Domain))
		e := Entity{
			ID:      i,
			Domain:  db.Domain,
			Name:    name,
			Phone:   phone,
			Address: textgen.USAddress(rng),
			PopRank: i + 1,
		}
		if rng.Float64() < homepageFraction {
			e.Homepage = homepageURL(name, i)
			db.byHomepage[CanonicalURL(e.Homepage)] = i
		}
		db.Entities = append(db.Entities, e)
		db.byPhone[phone] = i
	}
}

// homepageURL builds a unique homepage for entity i derived from its
// name: the first 24 ASCII letters and digits of the name, lower-cased,
// then i.
func homepageURL(name string, i int) string {
	var buf [80]byte
	b := append(buf[:0], "http://www."...)
	for j, n := 0, 0; j < len(name) && n < 24; j++ {
		switch c := name[j]; {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b, n = append(b, c), n+1
		case c >= 'A' && c <= 'Z':
			b, n = append(b, c+('a'-'A')), n+1
		}
	}
	b = strconv.AppendInt(b, int64(i), 10)
	return string(append(b, ".example.com/"...))
}

// CanonicalURL normalizes a URL for homepage identity comparison:
// lower-cased scheme/host, "www." preserved, trailing slash dropped,
// scheme dropped. The synthetic web renders homepages with small
// variations (http/https, with/without trailing slash) and this is the
// join key.
func CanonicalURL(u string) string {
	s := strings.TrimSpace(u)
	switch {
	case len(s) >= 8 && strings.EqualFold(s[:8], "https://"):
		s = s[8:]
	case len(s) >= 7 && strings.EqualFold(s[:7], "http://"):
		s = s[7:]
	}
	if i := strings.IndexAny(s, "?#"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSuffix(s, "/")
	// Host is case-insensitive; path (if any) is not, but synthetic
	// homepages have no meaningful path casing.
	return strings.ToLower(s)
}

// N returns the number of entities.
func (db *DB) N() int { return len(db.Entities) }

// LookupPhoneKey returns the entity ID owning the canonical phone whose
// ten NANP digits key holds. It performs no allocation, so the
// extraction scanner can look up every match it finds.
//
//repro:noalloc
func (db *DB) LookupPhoneKey(key []byte) (int, bool) {
	id, ok := db.byPhone[CanonicalPhone(key)]
	return id, ok
}

// LookupISBNKey returns the entity ID owning an already-normalized bare
// ISBN key (either form): ten or thirteen characters, digits plus an
// upper-case ISBN-10 check 'X'. It performs no allocation.
//
//repro:noalloc
func (db *DB) LookupISBNKey(key []byte) (int, bool) {
	id, ok := db.byISBN[string(key)]
	return id, ok
}

// LookupHomepageKey looks up an already-canonicalized homepage key
// (produced by AppendCanonicalURL or CanonicalURL). It performs no
// allocation, so the streaming extraction session can look up every
// anchor it finds.
func (db *DB) LookupHomepageKey(key []byte) (int, bool) {
	id, ok := db.byHomepage[string(key)]
	return id, ok
}

// AppendCanonicalURL appends the canonical form of the URL bytes u to
// dst (see CanonicalURL for the rules) and returns the extended slice.
// The ASCII path — every URL the synthetic web renders — allocates only
// when dst needs to grow; non-ASCII input falls back to the string path
// so the two functions can never disagree.
func AppendCanonicalURL(dst, u []byte) []byte {
	s := bytes.TrimSpace(u)
	switch {
	case len(s) >= 8 && asciiFoldEq(s[:8], "https://"):
		s = s[8:]
	case len(s) >= 7 && asciiFoldEq(s[:7], "http://"):
		s = s[7:]
	}
	if i := bytes.IndexAny(s, "?#"); i >= 0 {
		s = s[:i]
	}
	s = bytes.TrimSuffix(s, []byte("/"))
	for _, c := range s {
		if c >= 0x80 {
			return append(dst, strings.ToLower(string(s))...)
		}
	}
	for _, c := range s {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// asciiFoldEq reports whether b equals the ASCII string s under ASCII
// case folding; for the all-ASCII patterns used here it is equivalent
// to strings.EqualFold on the same byte ranges.
func asciiFoldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c, d := b[i], s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if d >= 'A' && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// WithHomepage returns the IDs of entities that have a homepage.
func (db *DB) WithHomepage() []int {
	out := make([]int, 0, len(db.Entities))
	for _, e := range db.Entities {
		if e.Homepage != "" {
			out = append(out, e.ID)
		}
	}
	return out
}
