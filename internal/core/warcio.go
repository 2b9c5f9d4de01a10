package core

import (
	"fmt"
	"io"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/extract"
	"repro/internal/index"
	"repro/internal/synth"
	"repro/internal/warc"
)

// CrawlDate is the WARC-Date stamped on the synthetic crawl; pinned for
// byte-reproducible archives.
const CrawlDate = "2012-03-29T00:00:00Z"

// WriteWARC renders every page of the web into a WARC archive on w
// (gzipped per record when gz is set) and returns the capture index.
// This is the persistent-crawl path: cmd/genweb writes the archive,
// cmd/extract consumes it.
func WriteWARC(web *synth.Web, w io.Writer, gz bool) (*warc.CDX, error) {
	ww := warc.NewWriter(w, gz, CrawlDate)
	err := ww.WriteWarcinfo(map[string]string{
		"software": "repro-webgen/1.0",
		"description": fmt.Sprintf("synthetic %s crawl, %d entities, %d directory hosts",
			web.Config.Domain, web.Config.Entities, web.Config.DirectoryHosts),
		"isPartOf": "structured-data-web-study",
	})
	if err != nil {
		return nil, fmt.Errorf("core: write warcinfo: %w", err)
	}
	cdx := &warc.CDX{}
	for si := range web.Sites {
		site := &web.Sites[si]
		var pageErr error
		web.RenderPages(site, func(url string, html []byte) {
			if pageErr != nil {
				return
			}
			off, n, err := ww.WriteResponse(url, html)
			if err != nil {
				pageErr = fmt.Errorf("core: write page %s: %w", url, err)
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
// mentions are aggregated by the record's host. reviewClf is required
// for the restaurants domain. It returns the per-attribute indexes and
// the number of pages processed.
func ExtractWARC(r io.Reader, db *entity.DB, reviewClf *classify.NaiveBayes) (map[entity.Attr]*index.Index, int, error) {
	x, err := extract.New(db, reviewClf)
	if err != nil {
		return nil, 0, fmt.Errorf("core: build extractor: %w", err)
	}
	sess, err := x.NewSession()
	if err != nil {
		return nil, 0, fmt.Errorf("core: build extraction session: %w", err)
	}
	wr, err := warc.NewReader(r)
	if err != nil {
		return nil, 0, fmt.Errorf("core: open warc: %w", err)
	}
	attrs := entity.AttrsFor(db.Domain)
	builders := make(map[entity.Attr]*index.Builder, len(attrs))
	for _, a := range attrs {
		universe := db.N()
		if a == entity.AttrHomepage {
			universe = len(db.WithHomepage())
		}
		builders[a] = index.NewBuilder(db.Domain, a, universe)
	}
	// Records arrive grouped by host, so each builder interns a host once
	// per run of its pages and the mentions add by row.
	rows := make(map[entity.Attr]int, len(attrs))
	curHost := ""
	pages := 0
	for {
		rec, err := wr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, pages, fmt.Errorf("core: read warc record: %w", err)
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
			for a, b := range builders {
				rows[a] = b.Site(host)
			}
		}
		pageReview := false
		for _, m := range sess.Page(body) {
			if b, ok := builders[m.Attr]; ok {
				b.AddTo(rows[m.Attr], m.EntityID)
			}
			if m.Attr == entity.AttrReview {
				pageReview = true
			}
		}
		if pageReview {
			builders[entity.AttrReview].AddPagesTo(rows[entity.AttrReview], 1)
		}
	}
	out := make(map[entity.Attr]*index.Index, len(builders))
	for a, b := range builders {
		out[a] = b.Build()
	}
	// The review universe is the set of reviewed entities (§3.4).
	if idx, ok := out[entity.AttrReview]; ok {
		n, err := idx.DistinctEntities()
		if err != nil {
			return nil, pages, fmt.Errorf("core: review universe: %w", err)
		}
		if n > 0 {
			idx.NumEntities = n
		}
	}
	return out, pages, nil
}
