package synth

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/entity"
)

// TestRenderPagesMatchesRenderSite: the streaming iterator and the
// materialized path must produce identical (URL, HTML) sequences — the
// wrapper relationship plus buffer reuse must never leak bytes between
// pages.
func TestRenderPagesMatchesRenderSite(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	for si := range w.Sites[:10] {
		s := &w.Sites[si]
		want := w.RenderSite(s)
		i := 0
		w.RenderPages(s, func(url string, html []byte) {
			if i >= len(want) {
				t.Fatalf("site %s: extra streamed page %s", s.Host, url)
			}
			if url != want[i].URL {
				t.Fatalf("site %s page %d: url %q, want %q", s.Host, i, url, want[i].URL)
			}
			if string(html) != string(want[i].HTML) {
				t.Fatalf("site %s page %d: html differs", s.Host, i)
			}
			i++
		})
		if i != len(want) {
			t.Fatalf("site %s: streamed %d pages, want %d", s.Host, i, len(want))
		}
	}
}

// TestRenderPagesConcurrentPooledBuffers: concurrent site renders must
// not interleave pooled scratch state (each RenderPages call owns its
// scratch for its whole duration).
func TestRenderPagesConcurrentPooledBuffers(t *testing.T) {
	w := smallWeb(t, entity.Banks)
	n := len(w.Sites)
	if n > 16 {
		n = 16
	}
	var wg sync.WaitGroup
	for si := 0; si < n; si++ {
		wg.Add(1)
		go func(s *Site) {
			defer wg.Done()
			want := w.RenderSite(s)
			i := 0
			w.RenderPages(s, func(url string, html []byte) {
				if i < len(want) && string(html) != string(want[i].HTML) {
					t.Errorf("site %s page %d: concurrent render differs", s.Host, i)
				}
				i++
			})
		}(&w.Sites[si])
	}
	wg.Wait()
}

// TestRenderPagesAllocs pins the pooled render loop: after warmup, the
// per-page allocation cost is a small constant (the emitted URL string
// plus the site RNG), not proportional to page content.
func TestRenderPagesAllocs(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	var big *Site
	for i := range w.Sites {
		if len(w.Sites[i].Listings) >= listingsPerPage {
			big = &w.Sites[i]
			break
		}
	}
	if big == nil {
		t.Fatal("no multi-page site")
	}
	pages := 0
	emit := func(string, []byte) { pages++ }
	w.RenderPages(big, emit) // warm the pool's buffers
	total := pages
	pages = 0
	allocs := testing.AllocsPerRun(20, func() {
		w.RenderPages(big, emit)
	})
	perPage := allocs / float64(total)
	if perPage > 3 {
		t.Errorf("render loop allocs/page = %.2f (%.0f allocs for %d pages), want <= 3",
			perPage, allocs, total)
	}
}

// TestRenderGoldenFragments pins representative rendered bytes so the
// piecewise writers cannot silently drift from the old fmt-based
// templates (URL shapes, escaping, the &middot; separator).
func TestRenderGoldenFragments(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	s := &w.Sites[0]
	found := false
	w.RenderPages(s, func(url string, html []byte) {
		if found {
			return
		}
		found = true
		h := string(html)
		for _, frag := range []string{
			"<!DOCTYPE html>\n<html>\n<head><title>",
			"</h1>\n",
			"</body>\n</html>\n",
		} {
			if !strings.Contains(h, frag) {
				t.Errorf("rendered page missing fragment %q", frag)
			}
		}
		if !strings.HasPrefix(url, "http://"+s.Host+"/") {
			t.Errorf("page URL %q not under host %q", url, s.Host)
		}
	})
	if !found {
		t.Fatal("site rendered no pages")
	}
	// A review page must keep the exact contact-line separator the
	// extractor's text pipeline sees as U+00B7.
	var review *entity.Entity
	for i := range w.DB.Entities {
		review = &w.DB.Entities[i]
		break
	}
	html := string(w.renderReviewPage(dist.NewRNG(9), *review))
	if !strings.Contains(html, " &middot; ") {
		t.Error("review contact line lost the &middot; separator")
	}
	if !strings.Contains(html, `<p class="contact">`) {
		t.Error("review page lost the contact paragraph")
	}
}
