package synth

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/logs"
)

// Direct tests for the render helpers: the cosmetic-variation functions
// and the page templates the extraction pipeline consumes.

func TestRenderPhoneCoversAllFormats(t *testing.T) {
	p := entity.CanonicalPhone("2025550147")
	rng := dist.NewRNG(1)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		s := renderPhone(rng, p)
		if s == "" {
			t.Fatal("empty phone rendering")
		}
		seen[s] = true
	}
	// Four display formats: parenthesized, dashed, dotted, bare.
	if len(seen) != 4 {
		t.Errorf("saw %d phone formats, want 4: %v", len(seen), seen)
	}
	if !seen[string(p)] {
		t.Error("bare canonical format never rendered")
	}
}

func TestRenderHomepageCoversAllVariants(t *testing.T) {
	const u = "http://www.homepage-0042.example.com/"
	rng := dist.NewRNG(2)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		v := renderHomepage(rng, u)
		if !strings.Contains(v, "homepage-0042.example.com") {
			t.Fatalf("variant %q lost the host", v)
		}
		seen[v] = true
	}
	want := []string{u, strings.TrimSuffix(u, "/"), strings.Replace(u, "http://", "https://", 1)}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("variant %q never rendered (saw %v)", w, seen)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("saw %d homepage variants, want %d", len(seen), len(want))
	}
}

func TestRenderISBNCoversBothForms(t *testing.T) {
	e := entity.Entity{ISBN10: "0306406152", ISBN13: "9780306406157"}
	rng := dist.NewRNG(3)
	saw10, saw13 := false, false
	for i := 0; i < 100; i++ {
		switch s := renderISBN(rng, e); s {
		case e.ISBN10:
			saw10 = true
		case entity.FormatISBN13(e.ISBN13):
			saw13 = true
		default:
			t.Fatalf("unexpected ISBN rendering %q", s)
		}
	}
	if !saw10 || !saw13 {
		t.Errorf("ISBN forms not both rendered: isbn10=%v isbn13=%v", saw10, saw13)
	}
}

func TestHashHostStableAndDistinct(t *testing.T) {
	if hashHost("a.example.com") != hashHost("a.example.com") {
		t.Error("hashHost not stable")
	}
	hosts := []string{"", "a", "b", "a.example.com", "b.example.com", "aa"}
	seen := map[uint64]string{}
	for _, h := range hosts {
		v := hashHost(h)
		if prev, dup := seen[v]; dup {
			t.Errorf("hosts %q and %q collide", h, prev)
		}
		seen[v] = h
	}
}

func TestRenderListingPageRestaurants(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	e := w.DB.Entities[0]
	site := &Site{Host: "dir.example.com", Class: Directory}
	l := Listing{Entity: e.ID, HasKey: true, HasHomepage: true}
	html := string(w.renderListingPage(dist.NewRNG(4), site, []Listing{l}))
	for _, want := range []string{"<h2>", "Phone:", "Visit website", e.Address.City} {
		if !strings.Contains(html, want) {
			t.Errorf("listing page missing %q", want)
		}
	}
	// Without the key or homepage, those blocks must be absent.
	bare := string(w.renderListingPage(dist.NewRNG(4), site, []Listing{{Entity: e.ID}}))
	if strings.Contains(bare, "Phone:") || strings.Contains(bare, "Visit website") {
		t.Error("keyless listing leaked phone or homepage")
	}
}

func TestRenderListingPageBooksShowsISBN(t *testing.T) {
	w := smallWeb(t, entity.Books)
	e := w.DB.Entities[0]
	site := &Site{Host: "books.example.com", Class: Directory}
	html := string(w.renderListingPage(dist.NewRNG(5), site, []Listing{{Entity: e.ID, HasKey: true}}))
	if !strings.Contains(html, "ISBN:") {
		t.Error("book listing with key missing ISBN block")
	}
	if strings.Contains(html, "Phone:") {
		t.Error("book listing rendered a phone block")
	}
}

func TestRenderReviewPageStructure(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	e := w.DB.Entities[3]
	html := string(w.renderReviewPage(dist.NewRNG(6), e))
	for _, want := range []string{
		"<title>Review: ", `class="contact"`, `class="review"`, "Reviewed by", e.Address.City,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("review page missing %q", want)
		}
	}
	// The contact line must carry the entity's phone in one of the four
	// display formats so extraction can attribute the page.
	p := e.Phone
	if !strings.Contains(html, p.Format()) && !strings.Contains(html, p.FormatDashed()) &&
		!strings.Contains(html, p.FormatDotted()) && !strings.Contains(html, string(p)) {
		t.Error("review page missing the entity phone in every format")
	}
}

func TestRenderSiteSelfSiteURL(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	var self *Site
	for i := range w.Sites {
		if w.Sites[i].Class == SelfSite {
			self = &w.Sites[i]
			break
		}
	}
	if self == nil {
		t.Skip("no self-site in this web")
	}
	pages := w.RenderSite(self)
	if len(pages) == 0 {
		t.Fatal("self-site rendered no pages")
	}
	if want := "http://" + self.Host + "/"; pages[0].URL != want {
		t.Errorf("self-site landing URL = %q, want %q", pages[0].URL, want)
	}
}

// TestRenderedEntityURLsNotClickLogEntities guards the URL namespaces:
// rendered synthetic-web pages must never parse as §4 click-log entity
// URLs (different subsystems, different universes).
func TestRenderedEntityURLsNotClickLogEntities(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	for si := range w.Sites[:5] {
		for _, p := range w.RenderSite(&w.Sites[si]) {
			if site, key, ok := logs.ParseEntityURL(p.URL); ok {
				t.Fatalf("page URL %q parses as click-log entity %s/%s", p.URL, site, key)
			}
		}
	}
}

// RenderSite renders every page of site s into retained memory: the
// materialized form of RenderPages, for tests that need all pages at
// once.
func (w *Web) RenderSite(s *Site) []Page {
	var pages []Page
	w.RenderPages(s, func(url string, html []byte) {
		pages = append(pages, Page{URL: url, HTML: append([]byte(nil), html...)})
	})
	return pages
}

// renderListingPage is the materialized form of writeListingPage,
// retained for tests and the DOM reference path.
func (w *Web) renderListingPage(rng *dist.RNG, s *Site, listings []Listing) []byte {
	var b bytes.Buffer
	w.writeListingPage(&b, rng, s, listings)
	return b.Bytes()
}

// renderReviewPage is the materialized form of writeReviewPage.
func (w *Web) renderReviewPage(rng *dist.RNG, e entity.Entity) []byte {
	var b bytes.Buffer
	w.writeReviewPage(&b, rng, e)
	return b.Bytes()
}

// renderPhone is the materialized form of writePhone (kept for tests).
func renderPhone(rng *dist.RNG, p entity.CanonicalPhone) string {
	var b bytes.Buffer
	writePhone(&b, rng, p)
	return b.String()
}

// renderHomepage is the materialized form of writeHomepage.
func renderHomepage(rng *dist.RNG, u string) string {
	var b bytes.Buffer
	writeHomepage(&b, rng, u)
	return b.String()
}

// renderISBN is the materialized form of writeISBN.
func renderISBN(rng *dist.RNG, e entity.Entity) string {
	var b bytes.Buffer
	writeISBN(&b, rng, e)
	return b.String()
}
