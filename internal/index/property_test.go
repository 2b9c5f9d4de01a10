package index

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/entity"
)

func randomBuilt(seed uint64) *Index {
	rng := dist.NewRNG(seed)
	n := 10 + rng.Intn(80)
	b := NewBuilder(entity.Hotels, entity.AttrPhone, n)
	sites := 1 + rng.Intn(25)
	for s := 0; s < sites; s++ {
		host := string([]byte{'h', byte('a' + s/26), byte('a' + s%26)}) + ".com"
		for j := 0; j < rng.Intn(10); j++ {
			b.Add(host, rng.Intn(n))
		}
		for j := 0; j < rng.Intn(3); j++ {
			b.AddPage(host)
		}
	}
	return b.Build()
}

// TestPropertySerializationRoundTrip: WriteTo → Read reproduces the
// index exactly for arbitrary content.
func TestPropertySerializationRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		idx := randomBuilt(seed)
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.Domain == idx.Domain && got.Attr == idx.Attr &&
			got.NumEntities == idx.NumEntities &&
			reflect.DeepEqual(got.Sites, idx.Sites)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertySizeOrderInvariant: after Build, sites are sorted by
// descending entity count with host-name tiebreak.
func TestPropertySizeOrderInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		idx := randomBuilt(seed)
		for i := 1; i < len(idx.Sites); i++ {
			a, b := idx.Sites[i-1], idx.Sites[i]
			if len(a.Entities) < len(b.Entities) {
				return false
			}
			if len(a.Entities) == len(b.Entities) && a.Host > b.Host {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPostingsSortedDistinct: each site's entity list is
// strictly ascending (sorted, no duplicates).
func TestPropertyPostingsSortedDistinct(t *testing.T) {
	f := func(seed uint64) bool {
		idx := randomBuilt(seed)
		for _, s := range idx.Sites {
			for i := 1; i < len(s.Entities); i++ {
				if s.Entities[i] <= s.Entities[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDistinctEntitiesBounds: 0 <= DistinctEntities <= both the
// posting count and the universe of generated IDs.
func TestPropertyDistinctEntitiesBounds(t *testing.T) {
	f := func(seed uint64) bool {
		idx := randomBuilt(seed)
		d, err := idx.DistinctEntities()
		return err == nil && d >= 0 && d <= idx.TotalPostings() && d <= idx.NumEntities
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
