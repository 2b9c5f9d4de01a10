// Package extract implements the identifying-attribute extractors of
// §3.2: a US phone extractor, an ISBN extractor that requires the
// string "ISBN" in a small window near the match, homepage extraction
// from anchor hrefs, and review-page detection via the Naïve-Bayes
// classifier. Extracted values are matched against the entity database
// to establish entity presence on a page.
//
// There is one production path, Session: it streams a page through
// htmlx's visitor and finds phones and ISBNs with a hand-written
// scanner for the grammar the paper's regular expressions state. Those
// expressions, applied to the page text, are the test oracle.
package extract

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/entity"
)

// Mention records that a page mentions an entity via one attribute.
type Mention struct {
	EntityID int
	Attr     entity.Attr
}

// Extractor extracts entity mentions from pages for one domain database.
// The zero value is unusable; construct with New. An Extractor is safe
// for concurrent use once built (the classifier is read-only at
// extraction time); NewSession returns its per-goroutine extraction
// sessions.
type Extractor struct {
	db         *entity.DB
	reviewClf  *classify.NaiveBayes // nil disables review detection
	reviewAttr bool                 // whether the domain studies reviews
}

// New returns an Extractor for db. reviewClf may be nil when review
// detection is not required for the domain (it is only used for
// restaurants in the paper).
func New(db *entity.DB, reviewClf *classify.NaiveBayes) (*Extractor, error) {
	if db == nil {
		return nil, fmt.Errorf("extract: nil entity database")
	}
	if reviewClf != nil && !reviewClf.Trained() {
		return nil, fmt.Errorf("extract: review classifier is untrained")
	}
	hasReview := false
	for _, a := range entity.AttrsFor(db.Domain) {
		if a == entity.AttrReview {
			hasReview = true
		}
	}
	return &Extractor{db: db, reviewClf: reviewClf, reviewAttr: hasReview}, nil
}

// TrainReviewClassifier builds a review classifier from labeled example
// pages (HTML in, label = page is a review page). It is the materialized
// convenience form of Trainer, which streams pages without retaining
// them.
func TrainReviewClassifier(pages [][]byte, labels []bool) (*classify.NaiveBayes, error) {
	if len(pages) != len(labels) {
		return nil, fmt.Errorf("extract: %d pages vs %d labels", len(pages), len(labels))
	}
	tr := NewTrainer(1)
	for i, p := range pages {
		tr.Add(p, labels[i])
	}
	return tr.Classifier()
}
