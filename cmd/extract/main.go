// Command extract runs the §3 extraction pipeline over a WARC crawl:
// parse every page, find identifying attributes (phones, ISBNs,
// homepage links, review content), match them against the entity
// database, and aggregate mentions by host into per-attribute
// entity–host index files.
//
// Usage:
//
//	extract -warc crawl.warc -domain restaurants -entities 2000 -seed 1 -out idx/
//
// The (domain, entities, seed) triple must match the cmd/genweb
// invocation that produced the crawl; the entity database is
// regenerated deterministically from it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "extract:", err)
		os.Exit(1)
	}
}

func run() error {
	warcPath := flag.String("warc", "crawl.warc", "input WARC path")
	domain := flag.String("domain", "restaurants", "entity domain of the crawl")
	entities := flag.Int("entities", synth.ScaleSmall.Entities, "entity database size (must match genweb)")
	hosts := flag.Int("hosts", synth.ScaleSmall.DirectoryHosts, "directory host count (must match genweb)")
	seed := flag.Uint64("seed", 1, "generation seed (must match genweb)")
	outDir := flag.String("out", "idx", "output directory for index files")
	flag.Parse()

	d, err := entity.ParseDomain(*domain)
	if err != nil {
		return err
	}
	// Rebuild the entity DB (and, for restaurants, the labeled training
	// pages for the review classifier) from the generation seed.
	web, err := synth.Generate(synth.Config{
		Domain:         d,
		Entities:       *entities,
		DirectoryHosts: *hosts,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}
	var nb *classify.NaiveBayes
	if d == entity.Restaurants {
		if nb, err = web.ReviewClassifier(*seed); err != nil {
			return err
		}
	}

	f, err := os.Open(*warcPath)
	if err != nil {
		return fmt.Errorf("open %s: %w", *warcPath, err)
	}
	defer f.Close()
	idxs, pages, err := synth.ExtractWARC(f, web.DB, nb)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", *outDir, err)
	}
	for _, attr := range entity.AttrsFor(d) {
		idx := idxs[attr]
		path := filepath.Join(*outDir, fmt.Sprintf("%s_%s.idx", d, attr))
		out, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if _, err := idx.WriteTo(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		fmt.Printf("%s: %d sites, %d postings, %d attribute pages\n",
			path, idx.NumSites(), idx.TotalPostings(), idx.TotalPages())
	}
	fmt.Printf("processed %d pages from %s\n", pages, *warcPath)
	return nil
}
