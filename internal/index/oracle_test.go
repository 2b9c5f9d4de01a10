package index

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/entity"
)

// oracle is the map-of-sets builder the row Builder replaced: one set
// per host, copied into a sorted slice at build time, sites sorted by
// size then host. It is the reference Build is compared against.
type oracle struct {
	entities map[string]map[int]struct{}
	pages    map[string]int
}

func newOracle() *oracle {
	return &oracle{entities: map[string]map[int]struct{}{}, pages: map[string]int{}}
}

func (o *oracle) add(host string, id int) {
	if o.entities[host] == nil {
		o.entities[host] = map[int]struct{}{}
	}
	o.entities[host][id] = struct{}{}
}

func (o *oracle) addPages(host string, n int) {
	if n > 0 {
		o.pages[host] += n
	}
}

func (o *oracle) build(domain entity.Domain, attr entity.Attr, num int) *Index {
	idx := &Index{Domain: domain, Attr: attr, NumEntities: num}
	hosts := map[string]struct{}{}
	for h := range o.entities {
		hosts[h] = struct{}{}
	}
	for h := range o.pages {
		hosts[h] = struct{}{}
	}
	for host := range hosts {
		var ids []int
		for id := range o.entities[host] {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		idx.Sites = append(idx.Sites, Site{Host: host, Entities: ids, Pages: o.pages[host]})
	}
	sort.Slice(idx.Sites, func(i, j int) bool {
		a, b := idx.Sites[i], idx.Sites[j]
		if len(a.Entities) != len(b.Entities) {
			return len(a.Entities) > len(b.Entities)
		}
		return a.Host < b.Host
	})
	return idx
}

// TestPropertyBuildMatchesOracle: arbitrary interleavings of Add, AddTo,
// AddPage, AddPagesTo and bare Site registrations over repeated hosts,
// duplicate ids and page-only hosts, some routed through a second
// builder and merged, build exactly the oracle's index — and building
// twice gives the same index again.
func TestPropertyBuildMatchesOracle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dist.NewRNG(seed)
		num := 1 + rng.Intn(40)
		hosts := 1 + rng.Intn(12)
		b := NewBuilder(entity.Hotels, entity.AttrReview, num)
		other := NewBuilder(entity.Hotels, entity.AttrReview, num)
		o := newOracle()
		for op := rng.Intn(200); op > 0; op-- {
			host := "h" + string(rune('a'+rng.Intn(hosts))) + ".com"
			dst := b
			if rng.Intn(4) == 0 {
				dst = other
			}
			switch id, n := rng.Intn(num), rng.Intn(3); rng.Intn(5) {
			case 0:
				dst.Add(host, id)
				o.add(host, id)
			case 1:
				dst.AddTo(dst.Site(host), id)
				o.add(host, id)
			case 2:
				dst.AddPage(host)
				o.addPages(host, 1)
			case 3:
				dst.AddPagesTo(dst.Site(host), n)
				o.addPages(host, n)
			case 4:
				dst.Site(host) // registered, maybe never used: dropped
			}
		}
		if err := b.Merge(other); err != nil {
			return false
		}
		got := b.Build()
		want := o.build(entity.Hotels, entity.AttrReview, num)
		return reflect.DeepEqual(got, want) && reflect.DeepEqual(b.Build(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuildEntitiesDoNotAlias: the sites share one packed column, but
// appending to one site's list must never write into the next site's.
func TestBuildEntitiesDoNotAlias(t *testing.T) {
	b := NewBuilder(entity.Banks, entity.AttrPhone, 10)
	for _, id := range []int{1, 2, 3} {
		b.Add("a.com", id)
	}
	b.Add("b.com", 4)
	b.Add("b.com", 5)
	b.Add("c.com", 6)
	idx := b.Build()
	for i := 0; i+1 < len(idx.Sites); i++ {
		next := slices.Clone(idx.Sites[i+1].Entities)
		_ = append(idx.Sites[i].Entities, -1, -1)
		if !slices.Equal(idx.Sites[i+1].Entities, next) {
			t.Errorf("append to site %d changed site %d: %v, want %v", i, i+1, idx.Sites[i+1].Entities, next)
		}
	}
}

// TestEntityBoundNegative: a negative id, which only Read or a
// hand-built index can carry, is an error for every dense consumer.
func TestEntityBoundNegative(t *testing.T) {
	neg := &Index{NumEntities: 4, Sites: []Site{{Host: "a.com", Entities: []int{2}}, {Host: "b.com", Entities: []int{-3}}}}
	if _, err := neg.EntityBound(); err == nil {
		t.Error("EntityBound: negative id should fail")
	}
	if _, err := neg.DistinctEntities(); err == nil {
		t.Error("DistinctEntities: negative id should fail")
	}
	wide := &Index{NumEntities: 2, Sites: []Site{{Host: "a.com", Entities: []int{7, 1}}, {Host: "b.com"}}}
	if n, err := wide.EntityBound(); err != nil || n != 8 {
		t.Errorf("EntityBound = %d, %v; want 8 past NumEntities", n, err)
	}
	if n, err := wide.DistinctEntities(); err != nil || n != 2 {
		t.Errorf("DistinctEntities = %d, %v; want 2", n, err)
	}
	if n, err := (&Index{}).EntityBound(); err != nil || n != 0 {
		t.Errorf("empty EntityBound = %d, %v", n, err)
	}
}
