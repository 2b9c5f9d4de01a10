package synth

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/entity"
)

func smallWeb(t *testing.T, d entity.Domain) *Web {
	t.Helper()
	w, err := Generate(Config{
		Domain:         d,
		Entities:       800,
		DirectoryHosts: 1200,
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Domain: "bogus", Entities: 10, DirectoryHosts: 10}); err == nil {
		t.Error("invalid domain should fail")
	}
	if _, err := Generate(Config{Domain: entity.Banks, Entities: 0, DirectoryHosts: 10}); err == nil {
		t.Error("zero entities should fail")
	}
	if _, err := Generate(Config{Domain: entity.Banks, Entities: 10, DirectoryHosts: 0}); err == nil {
		t.Error("zero hosts should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := smallWeb(t, entity.Restaurants)
	b := smallWeb(t, entity.Restaurants)
	if len(a.Sites) != len(b.Sites) {
		t.Fatalf("site counts differ: %d vs %d", len(a.Sites), len(b.Sites))
	}
	for i := range a.Sites {
		if a.Sites[i].Host != b.Sites[i].Host || len(a.Sites[i].Listings) != len(b.Sites[i].Listings) {
			t.Fatalf("site %d differs", i)
		}
		for j := range a.Sites[i].Listings {
			if a.Sites[i].Listings[j] != b.Sites[i].Listings[j] {
				t.Fatalf("site %d listing %d differs", i, j)
			}
		}
	}
}

func TestSiteSizesDecay(t *testing.T) {
	w := smallWeb(t, entity.Banks)
	// Site 0 must dwarf site 100; directory population is ordered by rank.
	if len(w.Sites[0].Listings) < 5*len(w.Sites[100].Listings) {
		t.Errorf("head site %d listings vs rank-100 %d: expected strong decay",
			len(w.Sites[0].Listings), len(w.Sites[100].Listings))
	}
	// Head site covers a majority of entities.
	if got := len(w.Sites[0].Listings); got < w.Config.Entities/2 {
		t.Errorf("head site covers %d of %d", got, w.Config.Entities)
	}
}

func TestSiteClasses(t *testing.T) {
	w := smallWeb(t, entity.Hotels)
	aggs, dirs, selfs := 0, 0, 0
	for i := range w.Sites {
		switch w.Sites[i].Class {
		case Aggregator:
			aggs++
		case Directory:
			dirs++
		case SelfSite:
			selfs++
			if len(w.Sites[i].Listings) != 1 {
				t.Errorf("self site with %d listings", len(w.Sites[i].Listings))
			}
			l := w.Sites[i].Listings[0]
			if !l.HasKey || !l.HasHomepage {
				t.Errorf("self site listing %+v must carry key and homepage", l)
			}
		}
	}
	if aggs != w.model.aggregators {
		t.Errorf("aggregators = %d, want %d", aggs, w.model.aggregators)
	}
	if dirs != w.Config.DirectoryHosts-w.model.aggregators {
		t.Errorf("directories = %d", dirs)
	}
	wantSelf := len(w.DB.WithHomepage())
	if selfs != wantSelf {
		t.Errorf("self sites = %d, want %d", selfs, wantSelf)
	}
}

func TestBooksHaveNoSelfSitesOrHomepages(t *testing.T) {
	w := smallWeb(t, entity.Books)
	for i := range w.Sites {
		if w.Sites[i].Class == SelfSite {
			t.Fatal("books should have no self sites")
		}
		for _, l := range w.Sites[i].Listings {
			if l.HasHomepage {
				t.Fatal("book listings should not link homepages")
			}
			if l.Reviews != 0 {
				t.Fatal("book listings should have no reviews")
			}
		}
	}
}

func TestReviewsOnlyForRestaurants(t *testing.T) {
	for _, d := range []entity.Domain{entity.Banks, entity.Schools} {
		w := smallWeb(t, d)
		if w.TotalReviewPages() != 0 {
			t.Errorf("%s has %d review pages", d, w.TotalReviewPages())
		}
	}
	w := smallWeb(t, entity.Restaurants)
	if w.TotalReviewPages() == 0 {
		t.Error("restaurants web has no reviews")
	}
}

func TestReviewsImplyKey(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	for i := range w.Sites {
		for _, l := range w.Sites[i].Listings {
			if l.Reviews > 0 && !l.HasKey {
				t.Fatalf("listing with reviews lacks key: %+v", l)
			}
		}
	}
}

func TestReviewsSkewToHeadEntities(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	reviews := make([]int, w.Config.Entities)
	for i := range w.Sites {
		for _, l := range w.Sites[i].Listings {
			reviews[l.Entity] += l.Reviews
		}
	}
	headSum, tailSum := 0, 0
	for e := 0; e < 80; e++ { // top 10%
		headSum += reviews[e]
	}
	for e := w.Config.Entities - 80; e < w.Config.Entities; e++ { // bottom 10%
		tailSum += reviews[e]
	}
	if headSum <= 2*tailSum {
		t.Errorf("reviews not head-skewed: head=%d tail=%d", headSum, tailSum)
	}
}

// TestHostNamesDistinct: every site of a web has its own host, for
// every domain over seeds 1–8 at small scale. ExtractIndexes relies on
// it: each worker adds to its sites' index rows without a lock.
func TestHostNamesDistinct(t *testing.T) {
	for _, d := range entity.AllDomains {
		for seed := uint64(1); seed <= 8; seed++ {
			w, err := Generate(Config{
				Domain:         d,
				Entities:       ScaleSmall.Entities,
				DirectoryHosts: ScaleSmall.DirectoryHosts,
				Seed:           seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]bool, len(w.Sites))
			for i := range w.Sites {
				h := w.Sites[i].Host
				if h == "" {
					t.Fatalf("%s seed %d: empty host", d, seed)
				}
				if seen[h] {
					t.Fatalf("%s seed %d: duplicate host %q", d, seed, h)
				}
				seen[h] = true
			}
		}
	}
}

// TestHostNamePinned pins hostName to the fmt formats it replaced:
// "top%d-%s.example.com" and "dir%06d.%s-sites.example.com", whose
// padding stops at six digits.
func TestHostNamePinned(t *testing.T) {
	cases := []struct {
		c    SiteClass
		rank int
		want string
	}{
		{Aggregator, 1, "top1-restaurants.example.com"},
		{Aggregator, 1234567, "top1234567-restaurants.example.com"},
		{Directory, 42, "dir000042.restaurants-sites.example.com"},
		{Directory, 0, "dir000000.restaurants-sites.example.com"},
		{Directory, 999999, "dir999999.restaurants-sites.example.com"},
		{Directory, 1000000, "dir1000000.restaurants-sites.example.com"},
		{Directory, 12345678, "dir12345678.restaurants-sites.example.com"},
	}
	for _, c := range cases {
		if got := hostName(entity.Restaurants, c.c, c.rank); got != c.want {
			t.Errorf("hostName(%v, %d) = %q, want %q", c.c, c.rank, got, c.want)
		}
		var old string
		if c.c == Aggregator {
			old = fmt.Sprintf("top%d-%s.example.com", c.rank, entity.Restaurants)
		} else {
			old = fmt.Sprintf("dir%06d.%s-sites.example.com", c.rank, entity.Restaurants)
		}
		if old != c.want {
			t.Errorf("fmt format gives %q, want %q", old, c.want)
		}
	}
}

func TestPopularityBias(t *testing.T) {
	w := smallWeb(t, entity.Automotive)
	// Count directory-population coverage per entity; head decile must be
	// covered more than tail decile.
	cov := make([]int, w.Config.Entities)
	for i := range w.Sites {
		if w.Sites[i].Class == SelfSite {
			continue
		}
		for _, l := range w.Sites[i].Listings {
			cov[l.Entity]++
		}
	}
	head, tail := 0, 0
	n := w.Config.Entities
	for e := 0; e < n/10; e++ {
		head += cov[e]
	}
	for e := n - n/10; e < n; e++ {
		tail += cov[e]
	}
	if head <= tail {
		t.Errorf("no popularity bias: head=%d tail=%d", head, tail)
	}
}

func TestSiteClassString(t *testing.T) {
	if Aggregator.String() != "aggregator" || Directory.String() != "directory" ||
		SelfSite.String() != "self" || SiteClass(9).String() != "unknown" {
		t.Error("SiteClass.String broken")
	}
}

func TestSelfSiteHostsMatchHomepage(t *testing.T) {
	w := smallWeb(t, entity.Libraries)
	for i := range w.Sites {
		if w.Sites[i].Class != SelfSite {
			continue
		}
		e := w.DB.Entities[w.Sites[i].Listings[0].Entity]
		if !strings.Contains(e.Homepage, w.Sites[i].Host) {
			t.Fatalf("self host %q not in homepage %q", w.Sites[i].Host, e.Homepage)
		}
	}
}

func TestTotalListingsPositive(t *testing.T) {
	w := smallWeb(t, entity.HomeGarden)
	if w.TotalListings() == 0 {
		t.Fatal("no listings generated")
	}
}
