package extract

import (
	"strings"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/htmlx"
)

// Page extracts all entity mentions from one HTML page by the regex
// oracle, the reference Session is held to. The extraction mirrors
// §3.2:
//
//   - phone: regex over the rendered page text,
//   - ISBN: digit runs with an "ISBN" marker in a window, over page text,
//   - homepage: href values of anchor elements matched against the DB,
//   - reviews: pages matching a restaurant phone are classified with
//     Naïve Bayes; a positive page yields a review mention for every
//     phone-matched entity on it.
func (x *Extractor) Page(html []byte) []Mention {
	text, anchors := pageTextAnchors(html)
	var out []Mention

	if x.db.Domain == entity.Books {
		for _, id := range MatchISBNs(x.db, text) {
			out = append(out, Mention{EntityID: id, Attr: entity.AttrISBN})
		}
		return out
	}

	phoneIDs := MatchPhones(x.db, text)
	for _, id := range phoneIDs {
		out = append(out, Mention{EntityID: id, Attr: entity.AttrPhone})
	}

	seenHome := make(map[int]struct{})
	for _, href := range anchors {
		if id, ok := x.db.LookupHomepageKey([]byte(entity.CanonicalURL(href))); ok {
			if _, dup := seenHome[id]; !dup {
				seenHome[id] = struct{}{}
				out = append(out, Mention{EntityID: id, Attr: entity.AttrHomepage})
			}
		}
	}

	if x.reviewAttr && x.reviewClf != nil && len(phoneIDs) > 0 {
		if sc, err := x.reviewClf.NewScorer(); err == nil && scoreReview(sc, text) {
			for _, id := range phoneIDs {
				out = append(out, Mention{EntityID: id, Attr: entity.AttrReview})
			}
		}
	}
	return out
}

// pageTextAnchors is the DOM's view of a page, Parse(html).Text() and
// .Anchors(), by the equivalence htmlx's FuzzStreamVsParse pins: the
// streamed text runs joined with spaces and Fields-collapsed, and the
// trimmed non-empty hrefs.
func pageTextAnchors(html []byte) (string, []string) {
	var b strings.Builder
	var anchors []string
	var st htmlx.Streamer
	st.Stream(html, func(run []byte) {
		b.Write(run)
		b.WriteByte(' ')
	}, func(href []byte) {
		if h := strings.TrimSpace(string(href)); h != "" {
			anchors = append(anchors, h)
		}
	})
	return strings.Join(strings.Fields(b.String()), " "), anchors
}

// scoreReview reports whether the scorer rates text a review.
func scoreReview(sc *classify.Scorer, text string) bool {
	sc.Write([]byte(text))
	return sc.LogOdds() > 0
}
