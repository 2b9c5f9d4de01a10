// Package index holds the entity–host index at the heart of the study's
// methodology (§3.1): "we group pages by hosts, and for each host, we
// aggregate the set of entities found on all the pages in that host."
// One Index covers one (domain, attribute) pair; the coverage and graph
// analyses consume it. Builder keeps one entity row per host; Build
// sorts each row in place and orders the rows by size.
package index

import (
	"bufio"
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
	// views of the builder's rows: an append to one never overwrites
	// another.
	Sites []Site
}

// Builder accumulates page-level mentions into an Index, one row per
// host holding its entity IDs unsorted until Build. It is not safe for
// concurrent use, except that once every row is registered, AddTo and
// AddPagesTo calls for distinct rows may run concurrently: workers that
// own disjoint hosts need no lock.
type Builder struct {
	domain entity.Domain
	attr   entity.Attr
	num    int
	rowOf  map[string]int // built by the first Site call
	hosts  []string
	byHost []int // rows in ascending host order; nil: Build sorts names
	rows   [][]int
	pages  []int
}

// NewBuilder returns a Builder for one (domain, attribute) with the
// given entity-database size. Rows are registered by Site.
func NewBuilder(domain entity.Domain, attr entity.Attr, numEntities int) *Builder {
	return &Builder{domain: domain, attr: attr, num: numEntities}
}

// NewBuilderRows returns a Builder whose row r is hosts[r], which must
// be distinct: no host map is built. byHost (read, never written) lists
// the rows in ascending host order, so Build breaks size ties by rank.
// counts, if non-nil, gives each row's number of AddTo calls: the rows
// are carved from one column, so filling them never reallocates.
func NewBuilderRows(domain entity.Domain, attr entity.Attr, numEntities int, hosts []string, byHost, counts []int) *Builder {
	b := &Builder{domain: domain, attr: attr, num: numEntities,
		hosts: hosts[:len(hosts):len(hosts)], byHost: byHost,
		rows: make([][]int, len(hosts)), pages: make([]int, len(hosts))}
	if counts != nil {
		total := 0
		for _, n := range counts {
			total += n
		}
		col := make([]int, total)
		for r, n := range counts {
			b.rows[r], col = col[:0:n], col[n:]
		}
	}
	return b
}

// Site returns host's row, registering the host on first use.
func (b *Builder) Site(host string) int {
	if b.rowOf == nil {
		b.rowOf = make(map[string]int, len(b.hosts))
		for r, h := range b.hosts {
			b.rowOf[h] = r
		}
	}
	if r, ok := b.rowOf[host]; ok {
		return r
	}
	r := len(b.hosts)
	b.rowOf[host] = r
	b.hosts = append(b.hosts, host)
	b.rows = append(b.rows, nil)
	b.pages = append(b.pages, 0)
	b.byHost = nil // a new host has no rank
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

// Build finalizes the index: each row sorted ascending and deduplicated
// in place, rows with neither entities nor pages dropped, and the rest
// in the paper's top-t order — descending by entity count, ties broken
// by host name — by one integer sort of (size, host rank) keys. Hosts
// without a rank from NewBuilderRows are ranked by name first.
func (b *Builder) Build() *Index {
	byHost := b.byHost
	if byHost == nil {
		byHost = make([]int, len(b.hosts))
		for r := range byHost {
			byHost[r] = r
		}
		slices.SortFunc(byHost, func(x, y int) int { return strings.Compare(b.hosts[x], b.hosts[y]) })
	}
	keys := make([]uint64, 0, len(b.rows))
	for rank, r := range byHost {
		row := b.rows[r]
		slices.Sort(row)
		row = slices.Compact(row)
		b.rows[r] = row[:len(row):len(row)]
		if len(row) > 0 || b.pages[r] > 0 { // ^size: larger rows sort first
			keys = append(keys, uint64(^uint32(len(row)))<<32|uint64(rank))
		}
	}
	slices.Sort(keys)
	idx := &Index{Domain: b.domain, Attr: b.attr, NumEntities: b.num}
	if len(keys) > 0 {
		idx.Sites = make([]Site, len(keys))
	}
	for i, k := range keys {
		r := byHost[uint32(k)]
		idx.Sites[i] = Site{Host: b.hosts[r], Pages: b.pages[r]}
		if len(b.rows[r]) > 0 {
			idx.Sites[i].Entities = b.rows[r]
		}
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
