// Command clicklog generates and aggregates the §4 demand logs as
// files. The file boundary is where the demand layer's internal
// zero-string ClickRef representation persists: either materialized to
// the TSV wire format (-format tsv) and resolved back on replay — agg
// recognizes canonical simulator URLs with one interned-map hit and
// falls back to the general §4.1 URL patterns for everything else — or
// written as a columnar ClickRef segment store (-format seg,
// internal/seg: fixed-width packed entity, cookie and day columns and
// a run-length source column, with per-segment zone maps), which
// replays straight into the shard routers with no URL ever formatted
// or parsed and a working set of one segment, whatever the log size.
//
// Generate a year of search+browse traffic for one site (clicks are
// synthesized by -gen parallel workers over leapfrog RNG substreams and
// written in canonical stream order, so the file is byte-identical for
// any worker count):
//
//	clicklog gen -site yelp -n 5000 -events 200000 -seed 1 -gen 8 -out clicks.tsv
//	clicklog gen -site yelp -n 5000 -events 200000 -seed 1 -format seg -out clicks.seg
//
// Generation is crash-safe: the stream is written to a temp file that
// is fsynced (per -fsync: always fsyncs each flushed segment too;
// close, the default, fsyncs once before publish; off skips
// durability) and atomically renamed into place — with the directory
// fsynced — only after a clean finish. Only successfully written
// clicks are counted, and a generation that fails mid-stream (the
// clicklog/gen/emit failpoint injects exactly this in tests) leaves
// neither the output path nor a temp file behind.
//
// Aggregate a log back into per-entity demand across -shards concurrent
// shard workers and print the demand distribution summary (the input
// format is sniffed from the file magic):
//
//	clicklog agg -site yelp -n 5000 -seed 1 -shards 8 -in clicks.tsv
//	clicklog agg -site yelp -n 5000 -seed 1 -in clicks.seg -src browse -days 0:90
//
// Segment replay takes pushdown predicates — -src, -days lo:hi,
// -entities lo:hi — and skips whole segments whose zone maps cannot
// match, reporting scanned vs skipped counts. A damaged segment log
// (torn tail, corrupt block) fails a strict replay; -salvage opens it
// with seg.OpenSalvage instead, folding the CRC-valid prefix and
// reporting quarantined segment counts alongside scanned/skipped. TSV replay skips
// malformed lines with a counter (use -strict to abort on the first
// bad line instead) and reports parsed vs aggregated vs dropped
// (non-entity) vs malformed separately. -cookies hints the known
// cookie population so heavily-visited entities count distinct cookies
// in a dense bitmap (demand.SetCookieHint) instead of a growing table.
//
// Replay drives the sharded aggregator's single-producer entry points:
// clicks (or decoded ref batches) are emitted from this command's one
// reader goroutine, as ShardedAggregator.Feed/FeedRefs require —
// parallelism lives behind the emit, in the resolver pool and shard
// workers, not in front of it.
//
// The (site, n, seed) triple must match between gen and agg so the
// catalog (and its URL keys) regenerates identically.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/demand"
	"repro/internal/fail"
	"repro/internal/fsx"
	"repro/internal/logs"
	"repro/internal/obs"
	"repro/internal/seg"
	"repro/internal/stats"
)

// fpEmit fires before each click is handed to the output writer:
// arming it injects mid-stream generation failures, the fault the
// atomic temp-file cleanup contract is tested against.
var fpEmit = fail.Register("clicklog/gen/emit")

// traceTo enables span recording when path is non-empty and returns
// the dump-at-exit func for the caller to defer.
func traceTo(path string) func() {
	if path == "" {
		return func() {}
	}
	obs.EnableTracing(0)
	return func() {
		if err := obs.WriteTraceFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "clicklog: write trace:", err)
		}
	}
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: clicklog <gen|agg> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "agg":
		err = runAgg(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (gen, agg)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clicklog:", err)
		os.Exit(1)
	}
}

func catalogFor(site string, n int, seed uint64) (*demand.Catalog, error) {
	s := logs.Site(site)
	if !s.Valid() {
		return nil, fmt.Errorf("unknown site %q (amazon, yelp, imdb)", site)
	}
	return demand.GenerateCatalog(demand.SiteDefaults(s, n, seed))
}

// genOptions parameterizes one generation run — the flag-free form the
// CLI test drives directly.
type genOptions struct {
	site    string
	n       int
	events  int
	cookies int
	seed    uint64
	gen     int
	out     string
	format  string // tsv | seg
	segRows int
	fsync   string // always | close | off ("": close)
}

// generate writes the simulated click stream for o to o.out and
// returns the number of clicks successfully written. The count
// increments only after the writer accepts a click — a failed write is
// not reported as written. The stream goes to an fsx temp file and is
// atomically renamed to o.out (with fsync per o.fsync) only after a
// clean finish: a crash or mid-stream error — including one injected
// at the clicklog/gen/emit failpoint — leaves neither a truncated
// o.out nor a stray temp file.
func generate(o genOptions) (count uint64, err error) {
	if o.format != "tsv" && o.format != "seg" {
		return 0, fmt.Errorf("unknown -format %q (tsv, seg)", o.format)
	}
	policy := fsx.SyncClose
	if o.fsync != "" {
		if policy, err = fsx.ParseSyncPolicy(o.fsync); err != nil {
			return 0, err
		}
	}
	cat, err := catalogFor(o.site, o.n, o.seed)
	if err != nil {
		return 0, err
	}
	af, err := fsx.CreateAtomic(o.out, policy)
	if err != nil {
		return 0, err
	}
	committed := false
	defer func() {
		if !committed {
			af.Abort()
		}
	}()
	cfg := demand.SimConfig{Events: o.events, Cookies: o.cookies, Seed: o.seed ^ 0x51b}
	p := demand.PipelineConfig{Generators: o.gen}
	switch o.format {
	case "tsv":
		w := logs.NewWriter(af)
		if err := demand.GenerateOrdered(cat, cfg, p, func(c logs.Click) error {
			if ferr := fpEmit.Fail(); ferr != nil {
				return ferr
			}
			if err := w.Write(c); err != nil {
				return err
			}
			count++
			return nil
		}); err != nil {
			return count, err
		}
		if err := w.Flush(); err != nil {
			return count, err
		}
	case "seg":
		// The segment writer sees the AtomicFile directly, so under
		// -fsync always its per-segment BatchSync bounds data loss to
		// one segment rather than the whole run.
		sw := seg.NewWriter(af, o.segRows)
		if err := demand.GenerateOrderedRefs(cat, cfg, p, func(r demand.ClickRef) error {
			if ferr := fpEmit.Fail(); ferr != nil {
				return ferr
			}
			if err := sw.Add(r); err != nil {
				return err
			}
			count++
			return nil
		}); err != nil {
			return count, err
		}
		if err := sw.Close(); err != nil {
			return count, err
		}
	}
	if err := af.Commit(); err != nil {
		return count, err
	}
	committed = true
	return count, nil
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	o := genOptions{}
	fs.StringVar(&o.site, "site", "yelp", "site: amazon, yelp, imdb")
	fs.IntVar(&o.n, "n", 5000, "catalog size")
	fs.IntVar(&o.events, "events", 0, "clicks per source (0: 40x catalog)")
	fs.IntVar(&o.cookies, "cookies", 0, "cookie population (0: 8x catalog)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed")
	fs.IntVar(&o.gen, "gen", 0, "generator workers (0: all cores)")
	fs.StringVar(&o.out, "out", "clicks.tsv", "output log path")
	fs.StringVar(&o.format, "format", "tsv", "output format: tsv (wire log) or seg (columnar segments)")
	fs.IntVar(&o.segRows, "segrows", 0, "refs per segment for -format seg (0: default)")
	fs.StringVar(&o.fsync, "fsync", "close", "durability before the atomic rename: always (also fsync each flushed segment), close, off")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON of pipeline spans to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer traceTo(*trace)()
	count, err := generate(o)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d clicks for %s (catalog %d entities) to %s (%s)\n",
		count, o.site, o.n, o.out, o.format)
	return nil
}

// aggOptions parameterizes one replay — the flag-free form the CLI
// test drives directly.
type aggOptions struct {
	site     string
	n        int
	seed     uint64
	shards   int
	in       string
	cookies  int    // cookie-population hint, 0 = none
	strict   bool   // abort on first malformed TSV line
	salvage  bool   // segment input: recover the CRC-valid prefix of a damaged file
	src      string // "" | search | browse
	days     string // "" | "lo:hi" inclusive
	entities string // "" | "lo:hi" inclusive
}

// aggResult carries the aggregates plus the replay accounting the
// summary prints: parsed vs dropped vs malformed for TSV, zone-map
// scan/skip counts for segments.
type aggResult struct {
	sa        *demand.ShardedAggregator
	format    string
	parsed    uint64 // TSV lines parsed as clicks
	resolved  uint64 // clicks resolved to catalog entities and folded
	dropped   uint64 // clicks dropped: non-entity URL / foreign site
	malformed uint64 // TSV lines skipped as malformed
	segStats  seg.ReplayStats
}

// parseRange parses an inclusive "lo:hi" bound.
func parseRange(s string) (lo, hi int64, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("range %q: want lo:hi", s)
	}
	if lo, err = strconv.ParseInt(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("range %q: %w", s, err)
	}
	if hi, err = strconv.ParseInt(b, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("range %q: %w", s, err)
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("range %q: hi < lo", s)
	}
	return lo, hi, nil
}

// predicateFor builds the segment pushdown predicate from the option
// strings; hasPred reports whether any narrowing flag was set.
func predicateFor(o aggOptions) (p seg.Predicate, hasPred bool, err error) {
	p = seg.All()
	if o.src != "" {
		si, ok := demand.SourceIndex(logs.Source(o.src))
		if !ok {
			return p, false, fmt.Errorf("unknown -src %q (search, browse)", o.src)
		}
		p = p.WithSrc(si)
		hasPred = true
	}
	if o.days != "" {
		lo, hi, err := parseRange(o.days)
		if err != nil {
			return p, false, fmt.Errorf("-days %w", err)
		}
		p = p.WithDays(int16(lo), int16(hi))
		hasPred = true
	}
	if o.entities != "" {
		lo, hi, err := parseRange(o.entities)
		if err != nil {
			return p, false, fmt.Errorf("-entities %w", err)
		}
		p = p.WithEntities(int32(lo), int32(hi))
		hasPred = true
	}
	return p, hasPred, nil
}

// sniffFormat names a log file's format by its leading magic.
func sniffFormat(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	magic := make([]byte, len(seg.HeaderMagic()))
	if n, _ := io.ReadFull(f, magic); n == len(magic) && string(magic) == string(seg.HeaderMagic()) {
		return "seg", nil
	}
	return "tsv", nil
}

// aggregate replays o.in into a fresh sharded aggregator.
func aggregate(o aggOptions) (*aggResult, error) {
	format, err := sniffFormat(o.in)
	if err != nil {
		return nil, err
	}
	pred, hasPred, err := predicateFor(o)
	if err != nil {
		return nil, err
	}
	cat, err := catalogFor(o.site, o.n, o.seed)
	if err != nil {
		return nil, err
	}
	sa := demand.NewShardedAggregator(cat, o.shards)
	if o.cookies > 0 {
		sa.SetCookieHint(o.cookies)
	}
	res := &aggResult{sa: sa, format: format}

	if format == "seg" {
		open := seg.OpenFile
		if o.salvage {
			open = seg.OpenSalvage
		}
		r, err := open(o.in)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		emit, done := sa.FeedRefs()
		st, err := r.Replay(pred, emit)
		done()
		if err != nil {
			return nil, err
		}
		res.segStats = st
		res.parsed = st.Rows
		res.resolved = st.Matched
		return res, nil
	}
	if hasPred {
		return nil, fmt.Errorf("pushdown flags (-src, -days, -entities) need a segment input; %s is tsv", o.in)
	}
	if o.salvage {
		return nil, fmt.Errorf("-salvage needs a segment input; %s is tsv", o.in)
	}
	f, err := os.Open(o.in)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", o.in, err)
	}
	defer f.Close()
	emit, done := sa.Feed()
	r := logs.NewReader(f)
	for {
		c, err := r.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, logs.ErrMalformed) {
			if o.strict {
				done()
				return nil, err
			}
			res.malformed++
			continue
		}
		if err != nil {
			done()
			return nil, err
		}
		res.parsed++
		emit(c)
	}
	done()
	res.resolved, res.dropped = sa.FeedStats()
	return res, nil
}

// aggSummary is runAgg's machine-readable replay accounting: the
// replay/feed stats plus the process-wide obs counters, so bench
// scripts parse ONE line instead of scraping the human text. Emitted
// as key=value pairs in text mode and as a JSON object behind -json.
type aggSummary struct {
	Format    string             `json:"format"`
	Input     string             `json:"input"`
	Shards    int                `json:"shards"`
	Parsed    uint64             `json:"parsed"`
	Resolved  uint64             `json:"resolved"`
	Dropped   uint64             `json:"dropped"`
	Malformed uint64             `json:"malformed"`
	Replay    *seg.ReplayStats   `json:"replay,omitempty"` // segment inputs only
	Obs       map[string]float64 `json:"obs"`
	Demand    []demandSummary    `json:"demand"`
}

type demandSummary struct {
	Source   string   `json:"source"`
	Top20Pct float64  `json:"top20_share_pct"`
	Gini     float64  `json:"gini"`
	ZipfS    *float64 `json:"zipf_s,omitempty"`
}

// obsSnapshot flattens obs.Default into name→value, keeping only the
// series this pipeline moves (demand_/seg_ prefixes) so the summary
// stays readable.
func obsSnapshot() map[string]float64 {
	out := map[string]float64{}
	for _, s := range obs.Default.Snapshot() {
		if strings.HasPrefix(s.Name, "repro_demand_") || strings.HasPrefix(s.Name, "repro_seg_") {
			out[s.Name] = s.Value
		}
	}
	return out
}

// summaryLine renders the stable key=value form of the summary (one
// line, fixed key order; obs keys sorted).
func summaryLine(s aggSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "summary format=%s shards=%d parsed=%d resolved=%d dropped=%d malformed=%d",
		s.Format, s.Shards, s.Parsed, s.Resolved, s.Dropped, s.Malformed)
	if s.Replay != nil {
		fmt.Fprintf(&b, " segments=%d skipped=%d quarantined=%d rows=%d matched=%d",
			s.Replay.Segments, s.Replay.Skipped, s.Replay.Quarantined, s.Replay.Rows, s.Replay.Matched)
	}
	keys := make([]string, 0, len(s.Obs))
	for k := range s.Obs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", strings.TrimPrefix(k, "repro_"),
			strconv.FormatFloat(s.Obs[k], 'g', -1, 64))
	}
	return b.String()
}

func runAgg(args []string) error {
	fs := flag.NewFlagSet("agg", flag.ExitOnError)
	o := aggOptions{}
	fs.StringVar(&o.site, "site", "yelp", "site: amazon, yelp, imdb")
	fs.IntVar(&o.n, "n", 5000, "catalog size (must match gen)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed (must match gen)")
	fs.IntVar(&o.shards, "shards", 0, "aggregation shard workers (0: all cores)")
	fs.StringVar(&o.in, "in", "clicks.tsv", "input log path")
	fs.IntVar(&o.cookies, "cookies", 0, "known cookie population hint (0: none) — enables bitmap distinct counting")
	fs.BoolVar(&o.strict, "strict", false, "abort on the first malformed line instead of skipping it")
	fs.BoolVar(&o.salvage, "salvage", false, "segment input: recover the CRC-valid prefix of a damaged log instead of failing")
	fs.StringVar(&o.src, "src", "", "segment pushdown: keep one source (search or browse)")
	fs.StringVar(&o.days, "days", "", "segment pushdown: keep days lo:hi (inclusive)")
	fs.StringVar(&o.entities, "entities", "", "segment pushdown: keep entity indexes lo:hi (inclusive)")
	jsonOut := fs.Bool("json", false, "emit the structured summary as one JSON object instead of text")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON of replay spans to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer traceTo(*trace)()
	res, err := aggregate(o)
	if err != nil {
		return err
	}
	sum := aggSummary{
		Format:    res.format,
		Input:     o.in,
		Shards:    res.sa.Shards(),
		Parsed:    res.parsed,
		Resolved:  res.resolved,
		Dropped:   res.dropped,
		Malformed: res.malformed,
		Obs:       obsSnapshot(),
	}
	if res.format == "seg" {
		st := res.segStats
		sum.Replay = &st
	}
	for _, src := range []logs.Source{logs.Search, logs.Browse} {
		vec := demand.UniqueVector(res.sa.Demand(src))
		d := demandSummary{
			Source:   string(src),
			Top20Pct: 100 * demand.TopShare(vec, 0.2),
			Gini:     stats.Gini(vec),
		}
		if s, err := stats.ZipfExponentFromRanks(vec, 500); err == nil {
			d.ZipfS = &s
		}
		sum.Demand = append(sum.Demand, d)
	}
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(sum)
	}
	switch res.format {
	case "seg":
		st := res.segStats
		fmt.Printf("replayed %s (seg): %d refs folded of %d decoded; %d/%d segments scanned, %d skipped by zone maps; %d shards\n",
			o.in, res.resolved, st.Rows, st.Segments-st.Skipped, st.Segments, st.Skipped, res.sa.Shards())
		if st.Quarantined > 0 {
			fmt.Printf("salvage: %d corrupt segment(s) quarantined; demand below covers the surviving prefix only\n", st.Quarantined)
		}
		fmt.Println()
	default:
		fmt.Printf("replayed %s (tsv): %d clicks parsed — %d aggregated, %d dropped (non-entity), %d malformed lines skipped; %d shards\n\n",
			o.in, res.parsed, res.resolved, res.dropped, res.malformed, res.sa.Shards())
	}
	for _, d := range sum.Demand {
		line := fmt.Sprintf("%s: top-20%% share %.1f%%, gini %.2f", d.Source, d.Top20Pct, d.Gini)
		if d.ZipfS != nil {
			line += fmt.Sprintf(", fitted zipf s=%.2f", *d.ZipfS)
		}
		fmt.Println(line)
	}
	fmt.Println()
	fmt.Println(summaryLine(sum))
	return nil
}
