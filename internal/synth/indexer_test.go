package synth

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/index"
)

func trainedReviewClassifier(t *testing.T, w *Web) *classify.NaiveBayes {
	t.Helper()
	nb, err := w.ReviewClassifier(7)
	if err != nil {
		t.Fatal(err)
	}
	return nb
}

func TestDirectIndexesAttrs(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	idxs := w.DirectIndexes()
	for _, a := range []entity.Attr{entity.AttrPhone, entity.AttrHomepage, entity.AttrReview} {
		if idxs[a] == nil {
			t.Fatalf("missing %s index", a)
		}
	}
	// Per-attribute coverage universes: phones span the DB, homepages
	// span entities-with-homepage, reviews span reviewed entities.
	if got := idxs[entity.AttrPhone].NumEntities; got != w.Config.Entities {
		t.Errorf("phone universe = %d, want %d", got, w.Config.Entities)
	}
	if got, want := idxs[entity.AttrHomepage].NumEntities, len(w.DB.WithHomepage()); got != want {
		t.Errorf("homepage universe = %d, want %d", got, want)
	}
	distinct, err := idxs[entity.AttrReview].DistinctEntities()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := idxs[entity.AttrReview].NumEntities, distinct; got != want {
		t.Errorf("review universe = %d, want %d distinct reviewed", got, want)
	}
	if idxs[entity.AttrPhone].TotalPostings() == 0 {
		t.Error("empty phone index")
	}
	if idxs[entity.AttrReview].TotalPages() != w.TotalReviewPages() {
		t.Errorf("review pages %d != model %d",
			idxs[entity.AttrReview].TotalPages(), w.TotalReviewPages())
	}
}

func TestDirectIndexesBooks(t *testing.T) {
	w := smallWeb(t, entity.Books)
	idxs := w.DirectIndexes()
	if len(idxs) != 1 || idxs[entity.AttrISBN] == nil {
		t.Fatalf("books should have exactly the ISBN index, got %d", len(idxs))
	}
}

// indexKey flattens an index into comparable host -> entity set form,
// ignoring page counts (checked separately where they must agree).
func indexKey(idx *index.Index) map[string][]int {
	out := make(map[string][]int, len(idx.Sites))
	for _, s := range idx.Sites {
		if len(s.Entities) > 0 {
			out[s.Host] = s.Entities
		}
	}
	return out
}

// extractWorkerCounts is the acceptance sweep: the streaming pipeline
// must be index-identical to the model's direct decisions for every
// worker count.
var extractWorkerCounts = []int{1, 2, 4, 8}

func TestExtractMatchesDirectBanks(t *testing.T) {
	w, err := Generate(Config{Domain: entity.Banks, Entities: 300, DirectoryHosts: 400, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	direct := w.DirectIndexes()
	for _, workers := range extractWorkerCounts {
		extracted, err := w.ExtractIndexes(nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []entity.Attr{entity.AttrPhone, entity.AttrHomepage} {
			if !reflect.DeepEqual(indexKey(direct[a]), indexKey(extracted[a])) {
				t.Errorf("workers=%d %s: extracted index differs from model decisions", workers, a)
			}
		}
	}
}

func TestExtractMatchesDirectBooks(t *testing.T) {
	w, err := Generate(Config{Domain: entity.Books, Entities: 300, DirectoryHosts: 400, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	direct := w.DirectIndexes()
	for _, workers := range extractWorkerCounts {
		extracted, err := w.ExtractIndexes(nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(indexKey(direct[entity.AttrISBN]), indexKey(extracted[entity.AttrISBN])) {
			t.Errorf("workers=%d ISBN: extracted index differs from model decisions", workers)
		}
	}
}

func TestExtractMatchesDirectRestaurants(t *testing.T) {
	w, err := Generate(Config{Domain: entity.Restaurants, Entities: 300, DirectoryHosts: 400, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	direct := w.DirectIndexes()
	nb := trainedReviewClassifier(t, w)
	extracted, err := w.ExtractIndexes(nb, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Phone and homepage must agree exactly.
	for _, a := range []entity.Attr{entity.AttrPhone, entity.AttrHomepage} {
		if !reflect.DeepEqual(indexKey(direct[a]), indexKey(extracted[a])) {
			t.Errorf("%s: extracted index differs from model decisions", a)
		}
	}
	// Review detection is statistical (classifier); demand near-perfect
	// agreement on postings.
	d := indexKey(direct[entity.AttrReview])
	e := indexKey(extracted[entity.AttrReview])
	agree, total := 0, 0
	for host, ids := range d {
		total += len(ids)
		got := map[int]bool{}
		for _, id := range e[host] {
			got[id] = true
		}
		for _, id := range ids {
			if got[id] {
				agree++
			}
		}
	}
	if total == 0 {
		t.Fatal("no review postings in model")
	}
	if frac := float64(agree) / float64(total); frac < 0.98 {
		t.Errorf("review postings agreement = %v, want >= 0.98", frac)
	}
}

func TestExtractRestaurantsRequiresClassifier(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	if _, err := w.ExtractIndexes(nil, 2); err == nil {
		t.Error("restaurants extraction without classifier should fail")
	}
}

// TestExtractRefusesRepeatedHost: workers add to their sites' rows
// without a lock, so a host naming two sites is an error, not a race.
func TestExtractRefusesRepeatedHost(t *testing.T) {
	w := smallWeb(t, entity.Banks)
	w.Sites[1].Host = w.Sites[0].Host
	if _, err := w.ExtractIndexes(nil, 2); err == nil {
		t.Error("a repeated host should fail")
	}
}

// TestDirectIndexesRefusesRepeatedHost: the direct builders share one
// host order, in which a repeated host shows as two equal neighbours;
// DirectIndexes has no error return, so it panics with the same error
// rather than merging two sites into one row.
func TestDirectIndexesRefusesRepeatedHost(t *testing.T) {
	w := smallWeb(t, entity.Banks)
	w.Sites[len(w.Sites)-1].Host = w.Sites[0].Host
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), "names two sites") {
			t.Errorf("recovered %v, want the repeated-host error", err)
		}
	}()
	w.DirectIndexes()
}

func TestRenderSitePages(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	var big *Site
	for i := range w.Sites {
		if len(w.Sites[i].Listings) > listingsPerPage {
			big = &w.Sites[i]
			break
		}
	}
	if big == nil {
		t.Fatal("no multi-page site")
	}
	pages := w.RenderSite(big)
	wantListingPages := (len(big.Listings) + listingsPerPage - 1) / listingsPerPage
	reviews := 0
	for _, l := range big.Listings {
		reviews += l.Reviews
	}
	if len(pages) != wantListingPages+reviews {
		t.Errorf("pages = %d, want %d listing + %d review", len(pages), wantListingPages, reviews)
	}
	for _, p := range pages {
		if !strings.Contains(p.URL, big.Host) {
			t.Errorf("page URL %q not on host %q", p.URL, big.Host)
		}
		if len(p.HTML) == 0 {
			t.Error("empty page HTML")
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	a := smallWeb(t, entity.Banks)
	b := smallWeb(t, entity.Banks)
	pa := a.RenderSite(&a.Sites[0])
	pb := b.RenderSite(&b.Sites[0])
	if len(pa) != len(pb) {
		t.Fatalf("page counts differ")
	}
	for i := range pa {
		if pa[i].URL != pb[i].URL || string(pa[i].HTML) != string(pb[i].HTML) {
			t.Fatalf("page %d differs between same-seed runs", i)
		}
	}
}

func TestTrainingCorpus(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	pages, pos := 0, 0
	w.TrainingCorpus(20, 3, func(_ []byte, isReview bool) {
		pages++
		if isReview {
			pos++
		}
	})
	if pages != 40 {
		t.Fatalf("got %d pages, want 40", pages)
	}
	if pos != 20 {
		t.Errorf("positives = %d, want 20", pos)
	}
}
