// Package index holds the entity–host index at the heart of the study's
// methodology (§3.1): "we group pages by hosts, and for each host, we
// aggregate the set of entities found on all the pages in that host."
// One Index covers one (domain, attribute) pair; the coverage and graph
// analyses consume it. Builder keeps one entity row per host; Build
// packs the rows, in size order, into one column the sites view.
package index

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/entity"
)

// Site is one host's aggregated postings for an attribute.
type Site struct {
	Host string
	// Entities lists the distinct entity IDs present on the host via
	// this attribute, sorted ascending.
	Entities []int
	// Pages counts the pages on this host carrying the attribute. For
	// the review attribute this is the review-page count used by the
	// aggregate-coverage analysis (Fig 4b); other attributes may leave
	// it zero.
	Pages int
}

// Index is the aggregated entity–host index for one (domain, attribute).
type Index struct {
	Domain entity.Domain
	Attr   entity.Attr
	// NumEntities is the entity database size, the denominator for
	// coverage fractions.
	NumEntities int
	// Sites is ordered descending by entity count (ties broken by host
	// name) once Build has run. Their Entities are capacity-clipped
	// views of one packed column: an append to one never overwrites
	// the next.
	Sites []Site
}

// Builder accumulates page-level mentions into an Index, one row per
// host (numbered by Site) holding its entity IDs unsorted until Build.
// It is not safe for concurrent use, except that once every row is
// registered, AddTo and AddPagesTo calls for distinct rows may run
// concurrently: workers that own disjoint hosts need no lock.
type Builder struct {
	domain entity.Domain
	attr   entity.Attr
	num    int
	rowOf  map[string]int
	hosts  []string
	rows   [][]int
	pages  []int
}

// NewBuilder returns a Builder for one (domain, attribute) with the
// given entity-database size.
func NewBuilder(domain entity.Domain, attr entity.Attr, numEntities int) *Builder {
	return &Builder{domain: domain, attr: attr, num: numEntities, rowOf: make(map[string]int)}
}

// Site returns host's row, registering the host on first use.
func (b *Builder) Site(host string) int {
	if r, ok := b.rowOf[host]; ok {
		return r
	}
	r := len(b.hosts)
	b.rowOf[host] = r
	b.hosts = append(b.hosts, host)
	b.rows = append(b.rows, nil)
	b.pages = append(b.pages, 0)
	return r
}

// AddTo records that the host of row mentions entity id.
func (b *Builder) AddTo(row, id int) { b.rows[row] = append(b.rows[row], id) }

// AddPagesTo adds n to the attribute-page counter of row's host.
func (b *Builder) AddPagesTo(row, n int) { b.pages[row] += n }

// Add records that host mentions entity id via the builder's attribute.
func (b *Builder) Add(host string, id int) { b.AddTo(b.Site(host), id) }

// AddPage increments host's attribute-page counter.
func (b *Builder) AddPage(host string) { b.AddPagesTo(b.Site(host), 1) }

// Merge folds other into b. Other must target the same attribute.
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

// Build finalizes the index: rows sorted ascending and deduplicated,
// rows with neither entities nor pages dropped, and the rest packed
// into one column in the paper's top-t order — descending by entity
// count, ties broken by host name.
func (b *Builder) Build() *Index {
	order := make([]int, 0, len(b.rows))
	total := 0
	for r, row := range b.rows {
		slices.Sort(row)
		b.rows[r] = slices.Compact(row)
		if n := len(b.rows[r]); n > 0 || b.pages[r] > 0 {
			order = append(order, r)
			total += n
		}
	}
	slices.SortFunc(order, func(x, y int) int {
		if c := cmp.Compare(len(b.rows[y]), len(b.rows[x])); c != 0 {
			return c
		}
		return strings.Compare(b.hosts[x], b.hosts[y])
	})
	idx := &Index{Domain: b.domain, Attr: b.attr, NumEntities: b.num}
	col := make([]int, 0, total)
	for _, r := range order {
		s := Site{Host: b.hosts[r], Pages: b.pages[r]}
		if lo := len(col); len(b.rows[r]) > 0 {
			col = append(col, b.rows[r]...)
			s.Entities = col[lo:len(col):len(col)]
		}
		idx.Sites = append(idx.Sites, s)
	}
	return idx
}

// NumSites returns the number of hosts in the index.
func (idx *Index) NumSites() int { return len(idx.Sites) }

// TotalPostings returns the number of (host, entity) pairs.
func (idx *Index) TotalPostings() int {
	n := 0
	for i := range idx.Sites {
		n += len(idx.Sites[i].Entities)
	}
	return n
}

// TotalPages returns the sum of per-site attribute-page counts.
func (idx *Index) TotalPages() int {
	n := 0
	for i := range idx.Sites {
		n += idx.Sites[i].Pages
	}
	return n
}

// EntityBound returns one past the largest entity ID posted (0 if
// none): the length of a dense per-entity array, which NumEntities may
// undercut. A negative ID is an error; the study never posts one.
func (idx *Index) EntityBound() (int, error) {
	n := 0
	for i := range idx.Sites {
		for _, id := range idx.Sites[i].Entities {
			if id < 0 {
				return 0, fmt.Errorf("index: site %s has negative entity id %d", idx.Sites[i].Host, id)
			}
			n = max(n, id+1)
		}
	}
	return n, nil
}

// DistinctEntities returns the number of distinct entities with at
// least one posting. Used as the coverage denominator for the review
// attribute, where the universe is "entities that have at least one
// review on the Web" rather than the whole database.
func (idx *Index) DistinctEntities() (int, error) {
	n, err := idx.EntityBound()
	if err != nil {
		return 0, err
	}
	seen := make([]bool, n)
	distinct := 0
	for i := range idx.Sites {
		for _, id := range idx.Sites[i].Entities {
			if !seen[id] {
				seen[id] = true
				distinct++
			}
		}
	}
	return distinct, nil
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

// WriteTo serializes the index as a text format:
//
//	header line:  domain <TAB> attr <TAB> numEntities
//	per site:     host <TAB> pages <TAB> comma-joined entity IDs
//
// It returns the number of bytes written.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	c, err := fmt.Fprintf(bw, "%s\t%s\t%d\n", idx.Domain, idx.Attr, idx.NumEntities)
	n += int64(c)
	if err != nil {
		return n, fmt.Errorf("index: write header: %w", err)
	}
	var sb strings.Builder
	for i := range idx.Sites {
		s := &idx.Sites[i]
		sb.Reset()
		for j, id := range s.Entities {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(id))
		}
		c, err := fmt.Fprintf(bw, "%s\t%d\t%s\n", s.Host, s.Pages, sb.String())
		n += int64(c)
		if err != nil {
			return n, fmt.Errorf("index: write site %s: %w", s.Host, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("index: flush: %w", err)
	}
	return n, nil
}

// Read parses an index written by WriteTo.
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
