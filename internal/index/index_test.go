package index

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/entity"
)

// Merge folds other into b. Other must target the same attribute. No
// production path merges builders, so it lives with the tests that
// route adds through a second builder.
func (b *Builder) Merge(other *Builder) error {
	if other.domain != b.domain || other.attr != b.attr {
		return fmt.Errorf("index: merging %s/%s into %s/%s", other.domain, other.attr, b.domain, b.attr)
	}
	for r, host := range other.hosts {
		dst := b.Site(host)
		b.rows[dst] = append(b.rows[dst], other.rows[r]...)
		b.pages[dst] += other.pages[r]
	}
	return nil
}

// Read parses an index written by WriteTo. No production path reads an
// index file back, so it lives with the round-trip tests.
func Read(r io.Reader) (*Index, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("index: read header: %w", err)
		}
		return nil, fmt.Errorf("index: empty input")
	}
	head := strings.Split(sc.Text(), "\t")
	if len(head) != 3 {
		return nil, fmt.Errorf("index: malformed header %q", sc.Text())
	}
	num, err := strconv.Atoi(head[2])
	if err != nil {
		return nil, fmt.Errorf("index: header entity count: %w", err)
	}
	idx := &Index{Domain: entity.Domain(head[0]), Attr: entity.Attr(head[1]), NumEntities: num}
	line := 1
	for sc.Scan() {
		line++
		parts := strings.SplitN(sc.Text(), "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("index: line %d has %d fields", line, len(parts))
		}
		pages, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("index: line %d pages: %w", line, err)
		}
		site := Site{Host: parts[0], Pages: pages}
		if parts[2] != "" {
			for _, f := range strings.Split(parts[2], ",") {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("index: line %d entity id %q: %w", line, f, err)
				}
				site.Entities = append(site.Entities, id)
			}
		}
		idx.Sites = append(idx.Sites, site)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("index: scan: %w", err)
	}
	return idx, nil
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(entity.Restaurants, entity.AttrPhone, 100)
	b.Add("big.com", 1)
	b.Add("big.com", 2)
	b.Add("big.com", 2) // duplicate collapses
	b.Add("small.com", 3)
	b.AddPage("big.com")
	b.AddPage("big.com")

	idx := b.Build()
	if idx.Domain != entity.Restaurants || idx.Attr != entity.AttrPhone || idx.NumEntities != 100 {
		t.Errorf("header fields wrong: %+v", idx)
	}
	if idx.NumSites() != 2 {
		t.Fatalf("NumSites = %d", idx.NumSites())
	}
	if idx.Sites[0].Host != "big.com" || !reflect.DeepEqual(idx.Sites[0].Entities, []int{1, 2}) {
		t.Errorf("site 0 = %+v", idx.Sites[0])
	}
	if idx.Sites[0].Pages != 2 {
		t.Errorf("pages = %d", idx.Sites[0].Pages)
	}
	if idx.TotalPostings() != 3 {
		t.Errorf("TotalPostings = %d", idx.TotalPostings())
	}
	if idx.TotalPages() != 2 {
		t.Errorf("TotalPages = %d", idx.TotalPages())
	}
}

func TestBuildSortsBySizeThenHost(t *testing.T) {
	b := NewBuilder(entity.Banks, entity.AttrPhone, 10)
	b.Add("zz.com", 1)
	b.Add("aa.com", 2)
	b.Add("mid.com", 1)
	b.Add("mid.com", 2)
	idx := b.Build()
	hosts := []string{idx.Sites[0].Host, idx.Sites[1].Host, idx.Sites[2].Host}
	if !reflect.DeepEqual(hosts, []string{"mid.com", "aa.com", "zz.com"}) {
		t.Errorf("order = %v", hosts)
	}
}

func TestBuilderMergeMismatch(t *testing.T) {
	a := NewBuilder(entity.Banks, entity.AttrPhone, 10)
	b := NewBuilder(entity.Banks, entity.AttrHomepage, 10)
	if err := a.Merge(b); err == nil {
		t.Error("attr mismatch should fail")
	}
}

func TestBuilderMerge(t *testing.T) {
	a := NewBuilder(entity.Banks, entity.AttrPhone, 10)
	a.Add("x.com", 1)
	a.AddPage("x.com")
	b := NewBuilder(entity.Banks, entity.AttrPhone, 10)
	b.Add("x.com", 2)
	b.Add("y.com", 3)
	b.AddPage("x.com")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	idx := a.Build()
	if idx.TotalPostings() != 3 || idx.TotalPages() != 2 {
		t.Errorf("merged: postings=%d pages=%d", idx.TotalPostings(), idx.TotalPages())
	}
}

func TestAvgSitesPerEntity(t *testing.T) {
	b := NewBuilder(entity.Banks, entity.AttrPhone, 10)
	// entity 1 on 3 sites, entity 2 on 1 site -> avg 2.
	b.Add("a.com", 1)
	b.Add("b.com", 1)
	b.Add("c.com", 1)
	b.Add("a.com", 2)
	idx := b.Build()
	if got, err := idx.AvgSitesPerEntity(); err != nil || got != 2 {
		t.Errorf("AvgSitesPerEntity = %v, %v", got, err)
	}
	empty := NewBuilder(entity.Banks, entity.AttrPhone, 10).Build()
	if got, err := empty.AvgSitesPerEntity(); err != nil || got != 0 {
		t.Errorf("empty avg = %v, %v", got, err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	b := NewBuilder(entity.Restaurants, entity.AttrReview, 50)
	b.Add("a.com", 5)
	b.Add("a.com", 9)
	b.AddPage("a.com")
	b.AddPage("a.com")
	b.Add("b.com", 9)
	// A host with pages but no entities must survive the round trip.
	b.AddPage("c.com")
	idx := b.Build()

	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain != idx.Domain || got.Attr != idx.Attr || got.NumEntities != idx.NumEntities {
		t.Errorf("header mismatch: %+v vs %+v", got, idx)
	}
	if !reflect.DeepEqual(got.Sites, idx.Sites) {
		t.Errorf("sites mismatch:\n%+v\n%+v", got.Sites, idx.Sites)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"only-two\tfields\n",
		"d\ta\tnotanumber\n",
		"d\ta\t5\nhost-only-line\n",
		"d\ta\t5\nhost\tx\t1,2\n",
		"d\ta\t5\nhost\t0\t1,zz\n",
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("Read(%q) should fail", c)
		}
	}
}

func TestShardedBuilderConcurrent(t *testing.T) {
	sb := NewShardedBuilder(entity.Banks, entity.AttrPhone, 1000, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				host := "host" + string(rune('a'+i%16)) + ".com"
				sb.Add(host, i%100)
				if i%10 == 0 {
					sb.AddPage(host)
				}
			}
		}(g)
	}
	wg.Wait()
	idx, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumSites() != 16 {
		t.Errorf("NumSites = %d, want 16", idx.NumSites())
	}
	if idx.TotalPages() != 8*100 {
		t.Errorf("TotalPages = %d, want 800", idx.TotalPages())
	}
	// Each host sees a deterministic subset of entity IDs; union must be
	// the full 0..99 range across hosts (every goroutine adds the same).
	seen := map[int]bool{}
	for _, s := range idx.Sites {
		for _, id := range s.Entities {
			seen[id] = true
		}
	}
	if len(seen) != 100 {
		t.Errorf("distinct entities = %d, want 100", len(seen))
	}
}

func TestShardedBuilderAgreesWithSerial(t *testing.T) {
	serial := NewBuilder(entity.Banks, entity.AttrPhone, 100)
	sharded := NewShardedBuilder(entity.Banks, entity.AttrPhone, 100, 7)
	type add struct {
		host string
		id   int
	}
	adds := []add{{"a.com", 1}, {"b.com", 2}, {"a.com", 3}, {"c.com", 1}, {"b.com", 2}}
	for _, a := range adds {
		serial.Add(a.host, a.id)
		sharded.Add(a.host, a.id)
	}
	got, err := sharded.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Build()
	if !reflect.DeepEqual(got.Sites, want.Sites) {
		t.Errorf("sharded %+v != serial %+v", got.Sites, want.Sites)
	}
}

func TestShardedBuilderMinShards(t *testing.T) {
	sb := NewShardedBuilder(entity.Banks, entity.AttrPhone, 10, 0)
	sb.Add("x.com", 1)
	idx, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumSites() != 1 {
		t.Errorf("NumSites = %d", idx.NumSites())
	}
}

// AvgSitesPerEntity returns the mean number of sites mentioning an
// entity, over entities mentioned at least once (Table 2's
// "Avg. #sites per entity").
func (idx *Index) AvgSitesPerEntity() (float64, error) {
	distinct, err := idx.DistinctEntities()
	if distinct == 0 {
		return 0, err
	}
	return float64(idx.TotalPostings()) / float64(distinct), nil
}
