// Command genweb generates the synthetic web corpus for one domain and
// writes it as a WARC archive plus a CDX capture index — the artifact a
// real crawler would hand to the extraction stage.
//
// Usage:
//
//	genweb -domain restaurants -entities 2000 -hosts 3000 -seed 1 \
//	       -out crawl.warc.gz -cdx crawl.cdx -gzip
//
// The entity database is regenerated deterministically from the same
// (domain, entities, seed) triple by cmd/extract; no separate DB file is
// needed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/entity"
	"repro/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "genweb:", err)
		os.Exit(1)
	}
}

func run() error {
	domain := flag.String("domain", "restaurants", "entity domain (books, restaurants, automotive, banks, libraries, schools, hotels, retail, homegarden)")
	entities := flag.Int("entities", synth.ScaleSmall.Entities, "entity database size")
	hosts := flag.Int("hosts", synth.ScaleSmall.DirectoryHosts, "directory host count")
	seed := flag.Uint64("seed", 1, "generation seed")
	out := flag.String("out", "crawl.warc", "output WARC path")
	cdxPath := flag.String("cdx", "", "optional CDX index path")
	gz := flag.Bool("gzip", false, "gzip each WARC record")
	flag.Parse()

	d, err := entity.ParseDomain(*domain)
	if err != nil {
		return err
	}
	web, err := synth.Generate(synth.Config{
		Domain:         d,
		Entities:       *entities,
		DirectoryHosts: *hosts,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return fmt.Errorf("create %s: %w", *out, err)
	}
	defer f.Close()
	cdx, err := web.WriteWARC(f, *gz)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", *out, err)
	}
	if *cdxPath != "" {
		cf, err := os.Create(*cdxPath)
		if err != nil {
			return fmt.Errorf("create %s: %w", *cdxPath, err)
		}
		defer cf.Close()
		if _, err := cdx.WriteTo(cf); err != nil {
			return err
		}
		if err := cf.Close(); err != nil {
			return fmt.Errorf("close %s: %w", *cdxPath, err)
		}
	}
	fmt.Printf("wrote %s: domain=%s sites=%d listings=%d pages=%d review-pages=%d\n",
		*out, d, len(web.Sites), web.TotalListings(), len(cdx.Entries), web.TotalReviewPages())
	return nil
}
