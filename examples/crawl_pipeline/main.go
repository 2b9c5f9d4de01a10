// crawl_pipeline runs the full §3 pipeline the way a crawl-based
// deployment would: render the synthetic web into a WARC archive, run
// the extraction stage over the archive (HTML parsing, phone regex,
// homepage anchors, Naïve-Bayes review detection), aggregate mentions
// by host, and compare the resulting coverage analysis against the
// model's ground truth.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/coverage"
	"repro/internal/entity"
	"repro/internal/synth"
)

func main() {
	web, err := synth.Generate(synth.Config{
		Domain:         entity.Restaurants,
		Entities:       800,
		DirectoryHosts: 1200,
		Seed:           7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic web: %d sites, %d listings, %d review pages\n",
		len(web.Sites), web.TotalListings(), web.TotalReviewPages())

	// 1. Crawl → WARC (in memory here; cmd/genweb writes files).
	var archive bytes.Buffer
	cdx, err := web.WriteWARC(&archive, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WARC archive: %d pages, %.1f MB gzipped, %d hosts\n",
		len(cdx.Entries), float64(archive.Len())/(1<<20), len(cdx.Hosts()))

	// 2. Train the review classifier on labeled pages (§3.2) by the
	// study's recipe.
	nb, err := web.ReviewClassifier(web.Config.Seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("review classifier: %d-token vocabulary\n", nb.Vocabulary())

	// 3. Extract the archive back into entity–host indexes.
	idxs, pagesProcessed, err := synth.ExtractWARC(&archive, web.DB, nb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extraction: %d pages processed\n\n", pagesProcessed)

	// 4. Coverage analysis per attribute, checked against ground truth.
	truth := web.DirectIndexes()
	for _, attr := range entity.AttrsFor(entity.Restaurants) {
		idx := idxs[attr]
		curves, err := coverage.KCoverage(idx, 1, coverage.LogSpacedT(len(idx.Sites)))
		if err != nil {
			log.Fatal(err)
		}
		k1 := curves[0]
		fmt.Printf("%-10s %6d sites, %7d postings (truth %7d), 90%% coverage at top-%d\n",
			attr, idx.NumSites(), idx.TotalPostings(),
			truth[attr].TotalPostings(), k1.FirstTReaching(0.9))
	}
}
