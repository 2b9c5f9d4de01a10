package index

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/entity"
)

// shuffle permutes s in place (Fisher–Yates).
func shuffle[T any](rng *dist.RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// TestPropertyRowsBuilderMatchesSiteBuilder: a builder over a host
// column (NewBuilderRows), with or without per-row counts and a host
// order, builds the same index as NewBuilder with Site and AddTo. The
// random rows include empty rows, page-only rows and duplicate ids, and
// few distinct ids make many equal-size ties, broken by host order
// ("top10-…" before "top2-…"), not by row order. With counts, every row
// is filled to exactly its carved capacity.
func TestPropertyRowsBuilderMatchesSiteBuilder(t *testing.T) {
	type posting struct{ row, id int }
	f := func(seed uint64) bool {
		rng := dist.NewRNG(seed)
		n, num := rng.Intn(40), 1+rng.Intn(6)
		hosts := make([]string, n)
		for r := range hosts {
			hosts[r] = "top" + strconv.Itoa(r+1) + "-books.example.com"
		}
		byHost := make([]int, n)
		for r := range byHost {
			byHost[r] = r
		}
		slices.SortFunc(byHost, func(x, y int) int { return strings.Compare(hosts[x], hosts[y]) })
		var posts []posting
		pages, counts := make([]int, n), make([]int, n)
		for r := range hosts {
			switch rng.Intn(4) {
			case 0: // empty: registered, never used
			case 1: // page-only
				pages[r] = 1 + rng.Intn(3)
			default:
				for k := rng.Intn(6); k >= 0; k-- {
					posts = append(posts, posting{r, rng.Intn(num)})
					counts[r]++
				}
				pages[r] = rng.Intn(2)
			}
		}
		shuffle(rng, posts)

		// The reference registers its hosts in a random order, so its
		// row numbers are not the column's.
		ref := NewBuilder(entity.Books, entity.AttrISBN, num)
		order := slices.Clone(byHost)
		shuffle(rng, order)
		for _, r := range order {
			ref.Site(hosts[r])
		}
		for _, p := range posts {
			ref.AddTo(ref.Site(hosts[p.row]), p.id)
		}
		for r, k := range pages {
			ref.AddPagesTo(ref.Site(hosts[r]), k)
		}
		want := ref.Build()

		for _, v := range []struct{ byHost, counts []int }{{byHost, counts}, {byHost, nil}, {nil, counts}, {nil, nil}} {
			b := NewBuilderRows(entity.Books, entity.AttrISBN, num, hosts, v.byHost, v.counts)
			for _, p := range posts {
				b.AddTo(p.row, p.id)
			}
			for r, k := range pages {
				b.AddPagesTo(r, k)
			}
			for r := range v.counts {
				if len(b.rows[r]) != v.counts[r] || cap(b.rows[r]) != v.counts[r] {
					t.Logf("seed %d: row %d holds %d of capacity %d, want %d", seed, r, len(b.rows[r]), cap(b.rows[r]), v.counts[r])
					return false
				}
			}
			if got := b.Build(); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d (rank %t, counts %t):\n got %+v\nwant %+v", seed, v.byHost != nil, v.counts != nil, got.Sites, want.Sites)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRowsBuilderSite: Site over a rows builder finds the column's rows
// through a map built on first use, and a host outside the column gets
// a new row, ordered by name since it has no rank.
func TestRowsBuilderSite(t *testing.T) {
	hosts := append(make([]string, 0, 4), "top2-x.com", "top10-x.com")
	b := NewBuilderRows(entity.Banks, entity.AttrPhone, 10, hosts, []int{1, 0}, []int{1, 1})
	if b.rowOf != nil {
		t.Fatal("NewBuilderRows built a host map")
	}
	if r := b.Site("top10-x.com"); r != 1 {
		t.Errorf("Site(top10-x.com) = %d, want 1", r)
	}
	b.AddTo(0, 1)
	b.AddTo(1, 2)
	b.Add("a.com", 3)
	if spare := hosts[:cap(hosts)]; !slices.Equal(spare, []string{"top2-x.com", "top10-x.com", "", ""}) {
		t.Errorf("the caller's host column changed: %q", spare)
	}
	var got []string
	for _, s := range b.Build().Sites {
		got = append(got, s.Host)
	}
	if want := []string{"a.com", "top10-x.com", "top2-x.com"}; !slices.Equal(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}
