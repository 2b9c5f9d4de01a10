package synth

import (
	"fmt"
	"io"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/extract"
	"repro/internal/index"
	"repro/internal/warc"
)

// CrawlDate is the WARC-Date stamped on the synthetic crawl; pinned for
// byte-reproducible archives.
const CrawlDate = "2012-03-29T00:00:00Z"

// WriteWARC renders every page of the web into a WARC archive on out
// (gzipped per record when gz is set) and returns the capture index.
// This is the persistent-crawl path: cmd/genweb writes the archive,
// cmd/extract consumes it through ExtractWARC.
func (w *Web) WriteWARC(out io.Writer, gz bool) (*warc.CDX, error) {
	ww := warc.NewWriter(out, gz, CrawlDate)
	err := ww.WriteWarcinfo(map[string]string{
		"software": "repro-webgen/1.0",
		"description": fmt.Sprintf("synthetic %s crawl, %d entities, %d directory hosts",
			w.Config.Domain, w.Config.Entities, w.Config.DirectoryHosts),
		"isPartOf": "structured-data-web-study",
	})
	if err != nil {
		return nil, fmt.Errorf("synth: write warcinfo: %w", err)
	}
	cdx := &warc.CDX{}
	for si := range w.Sites {
		site := &w.Sites[si]
		var pageErr error
		w.RenderPages(site, func(url string, html []byte) {
			if pageErr != nil {
				return
			}
			off, n, err := ww.WriteResponse(url, html)
			if err != nil {
				pageErr = fmt.Errorf("synth: write page %s: %w", url, err)
				return
			}
			cdx.Add(warc.CDXEntry{URI: url, Host: site.Host, Offset: off, Length: n})
		})
		if pageErr != nil {
			return nil, pageErr
		}
	}
	return cdx, nil
}

// ExtractWARC runs the extraction pipeline over a WARC stream: each
// response record streams through one extract.Session, and its
// mentions fold into the record host's row exactly as ExtractIndexes
// folds a rendered page. reviewClf is required for the restaurants
// domain. It returns the per-attribute indexes and the number of pages
// processed.
func ExtractWARC(r io.Reader, db *entity.DB, reviewClf *classify.NaiveBayes) (map[entity.Attr]*index.Index, int, error) {
	x, err := extract.New(db, reviewClf)
	if err != nil {
		return nil, 0, fmt.Errorf("synth: build extractor: %w", err)
	}
	sess, err := x.NewSession()
	if err != nil {
		return nil, 0, fmt.Errorf("synth: build extraction session: %w", err)
	}
	wr, err := warc.NewReader(r)
	if err != nil {
		return nil, 0, fmt.Errorf("synth: open warc: %w", err)
	}
	attrs := entity.AttrsFor(db.Domain)
	builders := make(map[entity.Attr]*index.Builder, len(attrs))
	for _, a := range attrs {
		builders[a] = index.NewBuilder(db.Domain, a, attrUniverse(db, a))
	}
	// Every builder registers each new host in the same order, so one
	// row number addresses the host in all of them. Records arrive
	// grouped by host, so the rows are looked up once per run of pages.
	row, curHost, pages := 0, "", 0
	for {
		rec, err := wr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, pages, fmt.Errorf("synth: read warc record: %w", err)
		}
		if rec.Type() != warc.TypeResponse {
			continue
		}
		host := warc.HostOf(rec.TargetURI())
		if host == "" {
			continue
		}
		_, _, body, err := warc.ParseHTTPResponse(rec.Content)
		if err != nil {
			continue // non-HTTP response records are not crawl pages
		}
		pages++
		if host != curHost {
			curHost = host
			for _, b := range builders {
				row = b.Site(host)
			}
		}
		addPage(builders, row, sess.Page(body))
	}
	out, err := buildIndexes(builders)
	return out, pages, err
}
