package extract_test

// Session property tests live in an external test package so they can
// render real synthetic webs (synth imports extract, so an internal
// test would cycle).

import (
	"testing"

	"repro/internal/entity"
	"repro/internal/extract"
	"repro/internal/synth"
)

func renderedWeb(t testing.TB, d entity.Domain, seed uint64) *synth.Web {
	t.Helper()
	w, err := synth.Generate(synth.Config{
		Domain: d, Entities: 200, DirectoryHosts: 300, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func webClassifier(t testing.TB, w *synth.Web) *extract.Trainer {
	t.Helper()
	tr := extract.NewTrainer(1)
	w.TrainingCorpus(150, 7, tr.Add)
	return tr
}

// assertSessionMatchesPage is the tentpole's correctness gate: on every
// rendered page of the web, the streaming session must produce exactly
// the mentions of the retained-DOM reference path, in the same order.
func assertSessionMatchesPage(t *testing.T, w *synth.Web, x *extract.Extractor) {
	t.Helper()
	sess, err := x.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	pages, mismatches := 0, 0
	for si := range w.Sites {
		for _, p := range renderSite(w, &w.Sites[si]) {
			pages++
			want := x.Page(p.HTML)
			got := sess.Page(p.HTML)
			if len(got) != len(want) {
				t.Fatalf("page %s: session %v, dom %v", p.URL, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					mismatches++
					t.Errorf("page %s mention %d: session %+v, dom %+v", p.URL, i, got[i], want[i])
					break
				}
			}
		}
	}
	if pages == 0 {
		t.Fatal("web rendered no pages")
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d pages diverged", mismatches, pages)
	}
}

func TestSessionMatchesPageBanks(t *testing.T) {
	w := renderedWeb(t, entity.Banks, 11)
	x, err := extract.New(w.DB, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSessionMatchesPage(t, w, x)
}

func TestSessionMatchesPageHotels(t *testing.T) {
	w := renderedWeb(t, entity.Hotels, 12)
	x, err := extract.New(w.DB, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSessionMatchesPage(t, w, x)
}

func TestSessionMatchesPageBooks(t *testing.T) {
	w := renderedWeb(t, entity.Books, 13)
	x, err := extract.New(w.DB, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSessionMatchesPage(t, w, x)
}

func TestSessionMatchesPageRestaurantsWithClassifier(t *testing.T) {
	// Restaurants exercises the review path: the streaming scorer must
	// reach bit-identical classification decisions on every page.
	w := renderedWeb(t, entity.Restaurants, 14)
	nb, err := webClassifier(t, w).Classifier()
	if err != nil {
		t.Fatal(err)
	}
	x, err := extract.New(w.DB, nb)
	if err != nil {
		t.Fatal(err)
	}
	assertSessionMatchesPage(t, w, x)
}

func TestSessionMatchesPageManySeeds(t *testing.T) {
	// Sweep seeds on the phone domain most sensitive to format variety.
	for seed := uint64(20); seed < 25; seed++ {
		w := renderedWeb(t, entity.Schools, seed)
		x, err := extract.New(w.DB, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSessionMatchesPage(t, w, x)
	}
}

// TestSessionHandcraftedPages exercises session behavior on adversarial
// page shapes against the DOM path: attribute-hidden phones, entities
// split across markup, duplicate mentions, ISBN marker windows.
func TestSessionHandcraftedPages(t *testing.T) {
	w := renderedWeb(t, entity.Banks, 31)
	x, err := extract.New(w.DB, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := x.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	e := w.DB.Entities[0]
	var home string
	for _, ent := range w.DB.Entities {
		if ent.Homepage != "" {
			home = ent.Homepage
			break
		}
	}
	pages := []string{
		"<p>Phone: " + e.Phone.Format() + "</p>",
		"<p>" + e.Phone.FormatDashed() + " and again " + e.Phone.Format() + "</p>",
		`<div data-note="` + e.Phone.Format() + `">no phone in text</div>`,
		"<p>split across <b>" + e.Phone.Format() + "</b> elements</p>",
		"<p>whitespace   collapse " + string(e.Phone) + "\n\t tail</p>",
		`<a href="` + home + `">site</a><a href="` + home + `">dup</a>`,
		`<a href="  ` + home + `  ">padded</a>`,
		"<script>" + e.Phone.Format() + "</script><p>hidden in raw</p>",
		"<p>&#40;" + string(e.Phone[:3]) + "&#41; " + string(e.Phone[3:6]) + "-" + string(e.Phone[6:]) + "</p>",
		"",
	}
	for _, pg := range pages {
		want := x.Page([]byte(pg))
		got := sess.Page([]byte(pg))
		if len(got) != len(want) {
			t.Fatalf("page %q: session %v, dom %v", pg, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("page %q mention %d: %+v vs %+v", pg, i, got[i], want[i])
			}
		}
	}
}

// TestSessionISBNMarkerWindow pins the §3.2 window rule through the
// streaming candidate/marker resolution, including markers after the
// match and out-of-window markers.
func TestSessionISBNMarkerWindow(t *testing.T) {
	w := renderedWeb(t, entity.Books, 41)
	x, err := extract.New(w.DB, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := x.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	b := w.DB.Entities[2]
	pages := []string{
		"<p>ISBN: " + b.ISBN10 + "</p>",
		"<p>" + b.ISBN10 + " (ISBN)</p>", // marker after the match
		"<p>" + b.ISBN10 + "</p>",        // no marker: no mention
		"<p>isbn " + entity.FormatISBN13(b.ISBN13) + "</p>",
		// Marker far outside the 48-byte window.
		"<p>ISBN of something else. Much later in unrelated prose, far beyond the window limit, sits " + b.ISBN10 + "</p>",
		"<p>ISBN " + b.ISBN10 + " and " + entity.FormatISBN13(b.ISBN13) + " same book twice</p>",
	}
	for _, pg := range pages {
		want := x.Page([]byte(pg))
		got := sess.Page([]byte(pg))
		if len(got) != len(want) {
			t.Fatalf("page %q: session %v, dom %v", pg, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("page %q mention %d: %+v vs %+v", pg, i, got[i], want[i])
			}
		}
	}
}

// TestSessionPageAllocs pins the tentpole claim: steady-state streaming
// extraction allocates nothing per page.
func TestSessionPageAllocs(t *testing.T) {
	for _, d := range []entity.Domain{entity.Banks, entity.Books} {
		w := renderedWeb(t, d, 51)
		x, err := extract.New(w.DB, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := x.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		var html []byte
		for si := range w.Sites {
			if len(w.Sites[si].Listings) > 0 {
				html = renderSite(w, &w.Sites[si])[0].HTML
				break
			}
		}
		for i := 0; i < 4; i++ {
			sess.Page(html) // warm scratch growth
		}
		allocs := testing.AllocsPerRun(100, func() {
			sess.Page(html)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Session.Page allocs/op = %v, want 0", d, allocs)
		}
	}
}

// TestSessionRestaurantsAllocs covers the classifier-scoring variant.
func TestSessionRestaurantsAllocs(t *testing.T) {
	w := renderedWeb(t, entity.Restaurants, 52)
	nb, err := webClassifier(t, w).Classifier()
	if err != nil {
		t.Fatal(err)
	}
	x, err := extract.New(w.DB, nb)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := x.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	html := renderSite(w, &w.Sites[0])[0].HTML
	for i := 0; i < 4; i++ {
		sess.Page(html)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sess.Page(html)
	})
	if allocs != 0 {
		t.Errorf("steady-state Session.Page (review path) allocs/op = %v, want 0", allocs)
	}
}

func TestTrainerSingleClassFails(t *testing.T) {
	tr := extract.NewTrainer(1)
	tr.Add([]byte("<p>only positive</p>"), true)
	if _, err := tr.Classifier(); err == nil {
		t.Error("single-class Classifier should fail")
	}
}

func TestNewSessionNoPatterns(t *testing.T) {
	db, err := entity.Generate(entity.Config{Domain: entity.Books, N: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Books DB has ISBNs, so this succeeds; the no-pattern error path is
	// covered via a phone automaton over an empty-phone DB in the unit
	// tests. Here just assert session construction works repeatedly.
	x, err := extract.New(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := x.NewSession(); err != nil {
			t.Fatal(err)
		}
	}
}

// renderSite materializes every page of site s: RenderPages reuses its
// buffer, so each page's HTML is copied out.
func renderSite(w *synth.Web, s *synth.Site) []synth.Page {
	var pages []synth.Page
	w.RenderPages(s, func(url string, html []byte) {
		pages = append(pages, synth.Page{URL: url, HTML: append([]byte(nil), html...)})
	})
	return pages
}
