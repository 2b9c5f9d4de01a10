package synth

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/extract"
	"repro/internal/index"
)

// DirectIndexes builds the per-attribute entity–host indexes straight
// from the model's coverage decisions, bypassing HTML. This is the fast
// path used for large parameter sweeps; ExtractIndexes (render → parse →
// extract → aggregate) produces identical indexes on the same web, which
// the test suite asserts. Postings are counted per site, then filled.
func (w *Web) DirectIndexes() map[entity.Attr]*index.Index {
	keyAttr := entity.AttrPhone
	if w.Config.Domain == entity.Books {
		keyAttr = entity.AttrISBN
	}
	counts := make(map[entity.Attr][]int, 3)
	for _, a := range entity.AttrsFor(w.Config.Domain) {
		counts[a] = make([]int, len(w.Sites))
	}
	keyN, homeN, reviewN := counts[keyAttr], counts[entity.AttrHomepage], counts[entity.AttrReview]
	for si := range w.Sites {
		for _, l := range w.Sites[si].Listings {
			if l.HasKey {
				keyN[si]++
			}
			if l.HasHomepage && homeN != nil {
				homeN[si]++
			}
			if l.Reviews > 0 && reviewN != nil {
				reviewN[si]++
			}
		}
	}
	builders, err := w.siteBuilders(counts)
	if err != nil {
		panic(err) // Generate gives every site its own host
	}
	key, home, review := builders[keyAttr], builders[entity.AttrHomepage], builders[entity.AttrReview]
	for si := range w.Sites {
		for _, l := range w.Sites[si].Listings {
			if l.HasKey {
				key.AddTo(si, l.Entity)
			}
			if l.HasHomepage && home != nil {
				home.AddTo(si, l.Entity)
			}
			if l.Reviews > 0 && review != nil {
				review.AddTo(si, l.Entity)
				review.AddPagesTo(si, l.Reviews)
			}
		}
	}
	out, err := buildIndexes(builders)
	if err != nil {
		panic(err) // listings hold database indexes, never negative
	}
	return out
}

// attrUniverse returns the coverage denominator for one attribute:
// phones and ISBNs span the whole database, homepages span the entities
// that have one (an entity with no website can never be homepage-
// covered; the paper's Fig 2 curves likewise saturate at the achievable
// maximum). The review universe is resolved after the index is built.
func (w *Web) attrUniverse(a entity.Attr) int {
	if a == entity.AttrHomepage {
		return len(w.DB.WithHomepage())
	}
	return w.Config.Entities
}

// siteBuilders returns a Builder per attribute, with row r = site r and
// counts[a] (if any) as attribute a's postings per site. One sort by
// host ranks the hosts for every attribute; equal neighbours there are
// a host naming two sites, which would merge two rows, so an error.
func (w *Web) siteBuilders(counts map[entity.Attr][]int) (map[entity.Attr]*index.Builder, error) {
	hosts := make([]string, len(w.Sites))
	byHost := make([]int, len(w.Sites))
	for si := range w.Sites {
		hosts[si], byHost[si] = w.Sites[si].Host, si
	}
	slices.SortFunc(byHost, func(x, y int) int { return strings.Compare(hosts[x], hosts[y]) })
	for i := 1; i < len(byHost); i++ {
		if h := hosts[byHost[i]]; h == hosts[byHost[i-1]] {
			return nil, fmt.Errorf("synth: host %q names two sites", h)
		}
	}
	attrs := entity.AttrsFor(w.Config.Domain)
	builders := make(map[entity.Attr]*index.Builder, len(attrs))
	for _, a := range attrs {
		builders[a] = index.NewBuilderRows(w.Config.Domain, a, w.attrUniverse(a), hosts, byHost, counts[a])
	}
	return builders, nil
}

// buildIndexes builds every attribute's index and sets the review
// denominator to the entities with a review anywhere (§3.4: coverage
// of "restaurants covered ... with respect to reviews").
func buildIndexes(builders map[entity.Attr]*index.Builder) (map[entity.Attr]*index.Index, error) {
	out := make(map[entity.Attr]*index.Index, len(builders))
	for a, b := range builders {
		out[a] = b.Build()
	}
	if idx, ok := out[entity.AttrReview]; ok {
		n, err := idx.DistinctEntities()
		if err != nil {
			return nil, fmt.Errorf("synth: review universe: %w", err)
		}
		if n > 0 {
			idx.NumEntities = n
		}
	}
	return out, nil
}

// ExtractIndexes runs the full extraction pipeline over the rendered
// web: each site's pages stream through the fused render → tokenize →
// match → classify pipeline (synth.RenderPages into pooled buffers,
// extract.Session over htmlx's streaming visitor), and mentions are
// aggregated by host into per-attribute indexes. No page, DOM, or text
// string is ever materialized, so the hot loop performs near-zero
// allocation. Work is spread over workers goroutines (<= 0 means
// GOMAXPROCS); the result is index-identical to DirectIndexes for every
// worker count. reviewClf may be nil for domains without the review
// attribute; restaurants require it.
func (w *Web) ExtractIndexes(reviewClf *classify.NaiveBayes, workers int) (map[entity.Attr]*index.Index, error) {
	if w.Config.Domain == entity.Restaurants && reviewClf == nil {
		return nil, fmt.Errorf("synth: restaurants extraction needs a review classifier")
	}
	x, err := extract.New(w.DB, reviewClf)
	if err != nil {
		return nil, fmt.Errorf("synth: build extractor: %w", err)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sessions := make([]*extract.Session, workers)
	for i := range sessions {
		if sessions[i], err = x.NewSession(); err != nil {
			return nil, fmt.Errorf("synth: build extraction session: %w", err)
		}
	}
	// Each site goes to one worker, and its rows are its own (row number
	// = site number), so the adds need no lock.
	builders, err := w.siteBuilders(nil)
	if err != nil {
		return nil, err
	}
	siteCh := make(chan int, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(sess *extract.Session) {
			defer wg.Done()
			var cur int
			emit := func(_ string, html []byte) {
				pageReview := false
				for _, m := range sess.Page(html) {
					if b, ok := builders[m.Attr]; ok {
						b.AddTo(cur, m.EntityID)
					}
					if m.Attr == entity.AttrReview {
						pageReview = true
					}
				}
				if pageReview {
					builders[entity.AttrReview].AddPagesTo(cur, 1)
				}
			}
			for cur = range siteCh {
				w.RenderPages(&w.Sites[cur], emit)
			}
		}(sessions[i])
	}
	for si := range w.Sites {
		siteCh <- si
	}
	close(siteCh)
	wg.Wait()

	return buildIndexes(builders)
}
