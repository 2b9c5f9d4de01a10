package logs

import (
	"strings"
	"testing"
)

// FuzzParseEntityURL fuzzes §4.1's URL parser over arbitrary strings,
// the shape of a URL field in a click log file, against its written
// invariants. ParseEntityURL never panics, and whenever it claims a
// parse:
//
//  1. the site is a known one and the URL's host names it;
//  2. the key is non-empty and appears verbatim in the URL;
//  3. the site's canonical URL for the key (EntityURL) parses back to
//     the same (site, key), so a parsed click re-resolves unchanged.
//
// CI runs this in the fuzz smoke alongside FuzzLogsReader.
func FuzzParseEntityURL(f *testing.F) {
	seeds := []string{
		"",
		"http://www.amazon.example.com/gp/product/B00A1B2C3D",
		"http://www.amazon.example.com/gp/product/B00A1B2C3D/ref=x",
		"http://www.amazon.example.com/gp/product/b00a1b2c3d",
		"http://www.amazon.example.com/gp/product/",
		"http://www.amazon.example.com/dp/B00A1B2C3D",
		"https://amazon.com/widgets/dp/B00A1B2C3D?tag=x",
		"http://www.yelp.example.com/biz/golden-kitchen-3",
		"http://www.yelp.example.com/biz/golden-kitchen-3/menu#top",
		"http://www.yelp.example.com/biz/",
		"http://www.yelp.example.com/biz/UPPER-case",
		"http://yelp.com/biz/cafe-x?osq=food",
		"http://www.imdb.example.com/title/tt0111161/",
		"http://www.imdb.example.com/title/tt011116123",
		"http://www.imdb.example.com/title/tt01111",
		"http://www.imdb.example.com/title/",
		"http://www.imdb.example.com/title/tt0111161x",
		"ftp://www.amazon.example.com/gp/product/B00A1B2C3D",
		"http://www.amazon.example.com/gp/product/B00A1B2C3D\x00junk",
		"www.yelp.example.com/biz/slug",
		"http://example.com/unrelated",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, url string) {
		site, key, ok := ParseEntityURL(url)
		if !ok {
			if site != "" || key != "" {
				t.Fatalf("ParseEntityURL(%q) = (%q, %q, false): a failed parse must return zero values", url, site, key)
			}
			return
		}
		if !site.Valid() || !strings.Contains(hostOf(url), string(site)) {
			t.Fatalf("ParseEntityURL(%q): site %q is not the URL's host %q", url, site, hostOf(url))
		}
		if key == "" || !strings.Contains(url, key) {
			t.Fatalf("ParseEntityURL(%q): key %q is empty or not in the URL", url, key)
		}
		canon, err := EntityURL(site, key)
		if err != nil {
			t.Fatal(err)
		}
		if s2, k2, ok2 := ParseEntityURL(canon); !ok2 || s2 != site || k2 != key {
			t.Fatalf("ParseEntityURL(%q) = (%q, %q); its canonical URL %q parses to (%q, %q, %v)",
				url, site, key, canon, s2, k2, ok2)
		}
	})
}
