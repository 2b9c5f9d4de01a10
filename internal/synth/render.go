package synth

import (
	"bytes"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/htmlx"
	"repro/internal/textgen"
)

// listingsPerPage is how many business listings a directory page holds.
const listingsPerPage = 10

// Page is one rendered page of the synthetic web.
type Page struct {
	URL  string
	HTML []byte
}

// renderScratch is the per-worker pooled state of the streaming
// renderer: one page buffer and one URL buffer, reused page after page
// so a site render performs O(1) allocations regardless of page count.
type renderScratch struct {
	buf bytes.Buffer
	url []byte
}

var renderPool = sync.Pool{New: func() any { return new(renderScratch) }}

// RenderPages renders site s page by page, invoking emit for each.
// Pages render into a pooled buffer, so html is only valid for the
// duration of the callback (copy it to retain) and a site's pages are
// never all resident at once. Rendering order: listing pages first,
// then one page per review, all drawn from the site's deterministic
// cosmetic RNG.
func (w *Web) RenderPages(s *Site, emit func(url string, html []byte)) {
	rng := dist.NewRNG(w.Config.Seed ^ hashHost(s.Host))
	sc := renderPool.Get().(*renderScratch)
	defer renderPool.Put(sc)
	nPages := (len(s.Listings) + listingsPerPage - 1) / listingsPerPage
	for p := 0; p < nPages; p++ {
		lo := p * listingsPerPage
		hi := lo + listingsPerPage
		if hi > len(s.Listings) {
			hi = len(s.Listings)
		}
		sc.url = append(append(sc.url[:0], "http://"...), s.Host...)
		if s.Class == SelfSite {
			sc.url = append(sc.url, '/')
		} else {
			sc.url = append(sc.url, "/listings/"...)
			sc.url = strconv.AppendInt(sc.url, int64(p), 10)
		}
		sc.buf.Reset()
		w.writeListingPage(&sc.buf, rng, s, s.Listings[lo:hi])
		emit(string(sc.url), sc.buf.Bytes())
	}
	for _, l := range s.Listings {
		for r := 0; r < l.Reviews; r++ {
			e := w.DB.Entities[l.Entity]
			sc.url = append(append(sc.url[:0], "http://"...), s.Host...)
			sc.url = append(sc.url, "/review/"...)
			sc.url = strconv.AppendInt(sc.url, int64(e.ID), 10)
			sc.url = append(sc.url, '/')
			sc.url = strconv.AppendInt(sc.url, int64(r), 10)
			sc.buf.Reset()
			w.writeReviewPage(&sc.buf, rng, e)
			emit(string(sc.url), sc.buf.Bytes())
		}
	}
}

// writeListingPage renders one directory page with a block per listing.
func (w *Web) writeListingPage(b *bytes.Buffer, rng *dist.RNG, s *Site, listings []Listing) {
	title := s.Host
	if s.Class == SelfSite && len(listings) > 0 {
		title = w.DB.Entities[listings[0].Entity].Name
	}
	b.WriteString("<!DOCTYPE html>\n<html>\n<head><title>")
	htmlx.WriteEscaped(b, title)
	b.WriteString("</title></head>\n<body>\n<h1>")
	htmlx.WriteEscaped(b, title)
	b.WriteString("</h1>\n")
	esc := htmlx.EscapeWriter{B: b}
	for _, l := range listings {
		e := w.DB.Entities[l.Entity]
		b.WriteString("<div class=\"listing\">\n<h2>")
		htmlx.WriteEscaped(b, e.Name)
		b.WriteString("</h2>\n")
		if w.Config.Domain == entity.Books {
			if l.HasKey {
				b.WriteString("<p>ISBN: ")
				writeISBN(b, rng, e)
				b.WriteString("</p>\n")
			}
			n := 1 + rng.Intn(2)
			b.WriteString("<p>")
			textgen.WriteBoilerplate(esc, rng, n)
			b.WriteString("</p>\n")
		} else {
			b.WriteString("<p>")
			writeEscapedAddress(b, e.Address)
			b.WriteString("</p>\n")
			if l.HasKey {
				b.WriteString("<p>Phone: ")
				writePhone(b, rng, e.Phone)
				b.WriteString("</p>\n")
			}
			if l.HasHomepage {
				b.WriteString(`<p><a href="`)
				writeHomepage(b, rng, e.Homepage)
				b.WriteString("\">Visit website</a></p>\n")
			}
			n := 1 + rng.Intn(2)
			b.WriteString("<p>")
			textgen.WriteBoilerplate(esc, rng, n)
			b.WriteString("</p>\n")
		}
		b.WriteString("</div>\n")
	}
	b.WriteString("</body>\n</html>\n")
}

// writeReviewPage renders one user-review page for entity e. The page
// carries the entity's phone (so extraction can attribute it) and
// review prose (so the classifier recognizes it).
func (w *Web) writeReviewPage(b *bytes.Buffer, rng *dist.RNG, e entity.Entity) {
	b.WriteString("<!DOCTYPE html>\n<html>\n<head><title>Review: ")
	htmlx.WriteEscaped(b, e.Name)
	b.WriteString("</title></head>\n<body>\n<h1>")
	htmlx.WriteEscaped(b, e.Name)
	b.WriteString("</h1>\n<p class=\"contact\">")
	writePhone(b, rng, e.Phone)
	b.WriteString(" &middot; ")
	htmlx.WriteEscaped(b, e.Address.City)
	b.WriteString("</p>\n")
	esc := htmlx.EscapeWriter{B: b}
	nReviews := 1 + rng.Intn(3)
	for i := 0; i < nReviews; i++ {
		b.WriteString("<div class=\"review\">\n<h3>Reviewed by ")
		textgen.WritePersonName(esc, rng)
		b.WriteString("</h3>\n<p>")
		n := 4 + rng.Intn(5)
		textgen.WriteReview(esc, rng, e.Name, n)
		b.WriteString("</p>\n</div>\n")
	}
	b.WriteString("</body>\n</html>\n")
}

// writeEscapedAddress streams the one-line address rendering
// (Address.String) with HTML escaping, without building the string.
func writeEscapedAddress(b *bytes.Buffer, a textgen.Address) {
	htmlx.WriteEscaped(b, a.Street)
	b.WriteString(", ")
	htmlx.WriteEscaped(b, a.City)
	b.WriteString(", ")
	htmlx.WriteEscaped(b, a.State)
	b.WriteByte(' ')
	htmlx.WriteEscaped(b, a.Zip)
}

// writePhone streams one of the common display formats.
func writePhone(b *bytes.Buffer, rng *dist.RNG, p entity.CanonicalPhone) {
	form := rng.Intn(4)
	if len(p) != 10 {
		b.WriteString(string(p))
		return
	}
	switch form {
	case 0: // (NPA) NXX-XXXX
		b.WriteByte('(')
		b.WriteString(string(p[:3]))
		b.WriteString(") ")
		b.WriteString(string(p[3:6]))
		b.WriteByte('-')
		b.WriteString(string(p[6:]))
	case 1: // NPA-NXX-XXXX
		b.WriteString(string(p[:3]))
		b.WriteByte('-')
		b.WriteString(string(p[3:6]))
		b.WriteByte('-')
		b.WriteString(string(p[6:]))
	case 2: // NPA.NXX.XXXX
		b.WriteString(string(p[:3]))
		b.WriteByte('.')
		b.WriteString(string(p[3:6]))
		b.WriteByte('.')
		b.WriteString(string(p[6:]))
	default:
		b.WriteString(string(p))
	}
}

// writeHomepage streams the cosmetic URL variation real pages have.
func writeHomepage(b *bytes.Buffer, rng *dist.RNG, u string) {
	switch rng.Intn(3) {
	case 0:
		b.WriteString(u)
	case 1:
		b.WriteString(strings.TrimSuffix(u, "/"))
	default:
		if i := strings.Index(u, "http://"); i >= 0 {
			b.WriteString(u[:i])
			b.WriteString("https://")
			b.WriteString(u[i+len("http://"):])
		} else {
			b.WriteString(u)
		}
	}
}

// writeISBN streams either the ISBN-10 or the hyphenated ISBN-13.
func writeISBN(b *bytes.Buffer, rng *dist.RNG, e entity.Entity) {
	if rng.Intn(2) == 0 {
		b.WriteString(e.ISBN10)
		return
	}
	isbn := e.ISBN13
	if len(isbn) != 13 {
		b.WriteString(isbn)
		return
	}
	// 978-X-XXXX-XXXX-X, matching entity.FormatISBN13.
	b.WriteString(isbn[:3])
	b.WriteByte('-')
	b.WriteString(isbn[3:4])
	b.WriteByte('-')
	b.WriteString(isbn[4:8])
	b.WriteByte('-')
	b.WriteString(isbn[8:12])
	b.WriteByte('-')
	b.WriteString(isbn[12:])
}

// hashHost gives a stable 64-bit mix of a host name (FNV-1a).
func hashHost(host string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(host); i++ {
		h ^= uint64(host[i])
		h *= 0x100000001b3
	}
	return h
}

// TrainingCorpus streams a labeled corpus for the review classifier —
// review pages (label true) and listing/boilerplate pages (label false)
// from the same generators the web uses, as the paper trains its
// classifier on labeled page samples. Pages render into a pooled buffer
// that is only valid during the callback. ReviewClassifier is the
// study's training recipe over this corpus.
func (w *Web) TrainingCorpus(n int, seed uint64, emit func(html []byte, isReview bool)) {
	rng := dist.NewRNG(seed ^ 0x7ea11abe1)
	sc := renderPool.Get().(*renderScratch)
	defer renderPool.Put(sc)
	for i := 0; i < n; i++ {
		e := w.DB.Entities[rng.Intn(len(w.DB.Entities))]
		sc.buf.Reset()
		w.writeReviewPage(&sc.buf, rng, e)
		emit(sc.buf.Bytes(), true)

		l := Listing{Entity: e.ID, HasKey: true}
		site := &Site{Host: "training.example.com", Class: Directory}
		sc.buf.Reset()
		w.writeListingPage(&sc.buf, rng, site, []Listing{l})
		emit(sc.buf.Bytes(), false)
	}
}
