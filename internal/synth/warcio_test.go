package synth

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/classify"
	"repro/internal/entity"
)

func warcWeb(t *testing.T, d entity.Domain) *Web {
	t.Helper()
	w, err := Generate(Config{
		Domain: d, Entities: 200, DirectoryHosts: 300, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWriteWARCAndExtractRoundTrip: extracting the web's archive yields
// ExtractIndexes' indexes on the same web, site for site — host, entity
// row and page count — with the same universe. The restaurants case
// counts review pages through the trained classifier; the books case
// keys on ISBNs. Gzip framing does not depend on the domain, so only
// the books archive is also read gzipped: the restaurants one holds
// about 20k pages, one gzip member each, and reading it gzipped too
// took this test from 12.1 s to 55.6 s under the race detector (2
// vCPUs), which both CI race jobs run.
func TestWriteWARCAndExtractRoundTrip(t *testing.T) {
	cases := []struct {
		d   entity.Domain
		gzs []bool
	}{
		{entity.Restaurants, []bool{false}},
		{entity.Books, []bool{false, true}},
	}
	for _, c := range cases {
		d := c.d
		w := warcWeb(t, d)
		var clf *classify.NaiveBayes
		if d == entity.Restaurants {
			var err error
			if clf, err = w.ReviewClassifier(1); err != nil {
				t.Fatal(err)
			}
		}
		want, err := w.ExtractIndexes(clf, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, gz := range c.gzs {
			var buf bytes.Buffer
			cdx, err := w.WriteWARC(&buf, gz)
			if err != nil {
				t.Fatal(err)
			}
			got, pages, err := ExtractWARC(bytes.NewReader(buf.Bytes()), w.DB, clf)
			if err != nil {
				t.Fatal(err)
			}
			if pages != len(cdx.Entries) {
				t.Errorf("%s gz=%v: processed %d pages, cdx has %d", d, gz, pages, len(cdx.Entries))
			}
			if len(got) != len(want) {
				t.Fatalf("%s gz=%v: %d indexes, want %d", d, gz, len(got), len(want))
			}
			for a, wi := range want {
				gi := got[a]
				if gi == nil {
					t.Fatalf("%s gz=%v: no %s index", d, gz, a)
				}
				if gi.NumEntities != wi.NumEntities {
					t.Errorf("%s gz=%v %s: universe %d, want %d", d, gz, a, gi.NumEntities, wi.NumEntities)
				}
				if len(gi.Sites) != len(wi.Sites) {
					t.Errorf("%s gz=%v %s: %d sites, want %d", d, gz, a, len(gi.Sites), len(wi.Sites))
					continue
				}
				for i, ws := range wi.Sites {
					gs := gi.Sites[i]
					if gs.Host != ws.Host || gs.Pages != ws.Pages || !slices.Equal(gs.Entities, ws.Entities) {
						t.Errorf("%s gz=%v %s site %d: (%s, %d pages, %d entities), want (%s, %d pages, %d entities)",
							d, gz, a, i, gs.Host, gs.Pages, len(gs.Entities), ws.Host, ws.Pages, len(ws.Entities))
						break
					}
				}
			}
		}
	}
}

func TestWriteWARCDeterministic(t *testing.T) {
	render := func() []byte {
		w := warcWeb(t, entity.Schools)
		var buf bytes.Buffer
		if _, err := w.WriteWARC(&buf, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("WARC output not byte-reproducible")
	}
}

func TestExtractWARCGarbage(t *testing.T) {
	w := warcWeb(t, entity.Banks)
	if _, _, err := ExtractWARC(bytes.NewReader([]byte("not a warc")), w.DB, nil); err == nil {
		t.Error("garbage input should fail")
	}
}

func TestExtractWARCCDXHostsMatchSites(t *testing.T) {
	w := warcWeb(t, entity.Hotels)
	var buf bytes.Buffer
	cdx, err := w.WriteWARC(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for i := range w.Sites {
		hosts[w.Sites[i].Host] = true
	}
	for _, h := range cdx.Hosts() {
		if !hosts[h] {
			t.Errorf("cdx host %q not a model site", h)
		}
	}
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return 0, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriteWARCWriteErrors(t *testing.T) {
	w := warcWeb(t, entity.Banks)
	for _, budget := range []int{0, 4096} {
		if _, err := w.WriteWARC(&failWriter{n: budget}, false); err == nil {
			t.Errorf("budget %d: a failing writer should fail WriteWARC", budget)
		}
	}
}

func TestExtractWARCErrors(t *testing.T) {
	w := warcWeb(t, entity.Banks)
	var buf bytes.Buffer
	if _, err := w.WriteWARC(&buf, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExtractWARC(bytes.NewReader(buf.Bytes()), w.DB, classify.NewNaiveBayes(1)); err == nil {
		t.Error("an untrained classifier should fail")
	}
	torn := buf.Bytes()[:buf.Len()/2]
	if _, pages, err := ExtractWARC(bytes.NewReader(torn), w.DB, nil); err == nil || pages == 0 {
		t.Errorf("torn archive: (%d pages, %v), want pages read before an error", pages, err)
	}
}
