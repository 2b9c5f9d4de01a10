package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/demand"
	"repro/internal/fail"
	"repro/internal/logs"
)

// demandBytes serializes both sources' demand vectors — the byte-level
// identity the format round-trip tests pin.
func demandBytes(t *testing.T, sa *demand.ShardedAggregator) []byte {
	t.Helper()
	out := map[string][]demand.Estimate{}
	for _, src := range []logs.Source{logs.Search, logs.Browse} {
		out[string(src)] = sa.Demand(src)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var testGen = genOptions{
	site: "yelp", n: 120, events: 4000, cookies: 600, seed: 9, gen: 4,
	segRows: 256,
}

// TestGenAggIdentityAcrossFormats: the same simulation written as TSV
// and as columnar segments replays — with format sniffed from the file
// magic — to byte-identical demand aggregates. The segment path never
// touches a URL; agreeing with the parse-the-wire-log path end to end
// is the correctness bar for the whole seg layer.
func TestGenAggIdentityAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	tsv, segf := filepath.Join(dir, "clicks.tsv"), filepath.Join(dir, "clicks.seg")

	ot := testGen
	ot.format, ot.out = "tsv", tsv
	nTSV, err := generate(ot)
	if err != nil {
		t.Fatal(err)
	}
	osg := testGen
	osg.format, osg.out = "seg", segf
	nSeg, err := generate(osg)
	if err != nil {
		t.Fatal(err)
	}
	if nTSV == 0 || nTSV != nSeg {
		t.Fatalf("gen counts: tsv=%d seg=%d, want equal and nonzero", nTSV, nSeg)
	}

	agg := func(in string) *aggResult {
		res, err := aggregate(aggOptions{site: "yelp", n: 120, seed: 9, shards: 4, in: in})
		if err != nil {
			t.Fatalf("aggregate %s: %v", in, err)
		}
		return res
	}
	rt, rs := agg(tsv), agg(segf)
	if rt.format != "tsv" || rs.format != "seg" {
		t.Fatalf("sniffed formats (%q, %q), want (tsv, seg)", rt.format, rs.format)
	}
	if rs.segStats.Rows != nSeg || rs.segStats.Skipped != 0 {
		t.Fatalf("seg replay stats %+v, want %d rows, 0 skipped", rs.segStats, nSeg)
	}
	if rt.parsed != nTSV || rt.malformed != 0 {
		t.Fatalf("tsv replay parsed=%d malformed=%d, want %d, 0", rt.parsed, rt.malformed, nTSV)
	}
	if bt, bs := demandBytes(t, rt.sa), demandBytes(t, rs.sa); string(bt) != string(bs) {
		t.Fatal("TSV and segment replay produced different demand aggregates")
	}
}

// TestPushdownSkipsSegments: a source predicate must observably skip
// segments via zone maps. The generator emits the search stream then
// the browse stream as contiguous runs, so every segment except the
// boundary one is source-pure and -src search must prune roughly the
// browse half — while leaving search demand bit-identical to the
// unfiltered replay and browse demand exactly zero.
func TestPushdownSkipsSegments(t *testing.T) {
	dir := t.TempDir()
	segf := filepath.Join(dir, "clicks.seg")
	o := testGen
	o.format, o.out, o.segRows = "seg", segf, 64
	if _, err := generate(o); err != nil {
		t.Fatal(err)
	}

	base := aggOptions{site: "yelp", n: 120, seed: 9, shards: 2, in: segf}
	full, err := aggregate(base)
	if err != nil {
		t.Fatal(err)
	}
	filt := base
	filt.src = "search"
	res, err := aggregate(filt)
	if err != nil {
		t.Fatal(err)
	}
	if res.segStats.Skipped == 0 {
		t.Fatalf("source pushdown skipped 0 of %d segments; zone maps not pruning", res.segStats.Segments)
	}
	for i, e := range res.sa.Demand(logs.Browse) {
		if e.Visits != 0 {
			t.Fatalf("entity %d has %d browse visits after -src search", i, e.Visits)
		}
	}
	wantSearch, gotSearch := full.sa.Demand(logs.Search), res.sa.Demand(logs.Search)
	for i := range wantSearch {
		if wantSearch[i] != gotSearch[i] {
			t.Fatalf("entity %d search demand %+v != unfiltered %+v", i, gotSearch[i], wantSearch[i])
		}
	}
}

// TestPushdownRejectedOnTSV: predicate flags require a segment input.
func TestPushdownRejectedOnTSV(t *testing.T) {
	dir := t.TempDir()
	tsv := filepath.Join(dir, "clicks.tsv")
	o := testGen
	o.format, o.out, o.events = "tsv", tsv, 200
	if _, err := generate(o); err != nil {
		t.Fatal(err)
	}
	_, err := aggregate(aggOptions{site: "yelp", n: 120, seed: 9, in: tsv, src: "search"})
	if err == nil {
		t.Fatal("pushdown on tsv input should fail")
	}
}

// TestMalformedLineHandling: by default one garbage line is skipped and
// counted, every well-formed click around it still aggregates; -strict
// aborts on it instead.
func TestMalformedLineHandling(t *testing.T) {
	dir := t.TempDir()
	tsv := filepath.Join(dir, "clicks.tsv")
	o := testGen
	o.format, o.out, o.events = "tsv", tsv, 300
	n, err := generate(o)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(tsv, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("this line is garbage\nsearch\t12\t3\thttp://other.example.com/x\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	res, err := aggregate(aggOptions{site: "yelp", n: 120, seed: 9, in: tsv})
	if err != nil {
		t.Fatal(err)
	}
	if res.malformed != 1 {
		t.Fatalf("malformed = %d, want 1", res.malformed)
	}
	if res.parsed != n+1 {
		t.Fatalf("parsed = %d, want %d generated + 1 appended", res.parsed, n+1)
	}
	if res.resolved+res.dropped != res.parsed || res.dropped == 0 {
		t.Fatalf("resolved %d + dropped %d must partition parsed %d, with the foreign URL dropped",
			res.resolved, res.dropped, res.parsed)
	}

	if _, err := aggregate(aggOptions{site: "yelp", n: 120, seed: 9, in: tsv, strict: true}); !errors.Is(err, logs.ErrMalformed) {
		t.Fatalf("-strict should abort with ErrMalformed, got %v", err)
	}
}

// TestFailedGenLeavesNoFile: a generation failing mid-stream (fault
// injected at the clicklog/gen/emit failpoint after 50 clean emits)
// leaves neither the output path nor the atomic temp file, for both
// formats and every fsync policy; the reported count stays at the
// successfully-written total.
func TestFailedGenLeavesNoFile(t *testing.T) {
	for _, format := range []string{"tsv", "seg"} {
		for _, fsync := range []string{"always", "close", "off"} {
			dir := t.TempDir()
			o := testGen
			o.format, o.fsync, o.out = format, fsync, filepath.Join(dir, "clicks.out")
			fail.Arm("clicklog/gen/emit", fail.Action{Kind: fail.Error, Skip: 50, Times: 1})
			count, err := generate(o)
			fail.Disarm("clicklog/gen/emit")
			if !errors.Is(err, fail.ErrInjected) {
				t.Fatalf("%s/%s: err = %v, want injected failure", format, fsync, err)
			}
			if count != 50 {
				t.Fatalf("%s/%s: count = %d, want exactly the 50 successful writes", format, fsync, count)
			}
			ents, readErr := os.ReadDir(dir)
			if readErr != nil {
				t.Fatal(readErr)
			}
			if len(ents) != 0 {
				t.Fatalf("%s/%s: failed gen left files behind: %v", format, fsync, ents)
			}
		}
	}
}

// TestGenFsyncAlwaysPublishes: the strictest durability policy still
// produces a byte-valid, replayable segment log at the final path.
func TestGenFsyncAlwaysPublishes(t *testing.T) {
	dir := t.TempDir()
	o := testGen
	o.format, o.fsync, o.out = "seg", "always", filepath.Join(dir, "clicks.seg")
	n, err := generate(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(o.out + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file survived a committed gen")
	}
	res, err := aggregate(aggOptions{site: "yelp", n: 120, seed: 9, in: o.out})
	if err != nil {
		t.Fatal(err)
	}
	if res.segStats.Rows != n {
		t.Fatalf("replayed %d rows, want %d", res.segStats.Rows, n)
	}
}

// TestAggSalvageDamagedSegments: damaged segment logs fail a strict
// replay but recover under -salvage. Two damage shapes: a torn tail
// (crash before the directory sealed — the forward scan keeps the
// intact prefix, nothing to quarantine) and one corrupt payload byte
// under an intact directory (the bad segment is quarantined, the rest
// replay). -salvage on TSV input is rejected.
func TestAggSalvageDamagedSegments(t *testing.T) {
	dir := t.TempDir()
	segf := filepath.Join(dir, "clicks.seg")
	o := testGen
	o.format, o.out, o.segRows = "seg", segf, 64
	n, err := generate(o)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(segf)
	if err != nil {
		t.Fatal(err)
	}

	strictFails := func(in string) {
		t.Helper()
		if _, err := aggregate(aggOptions{site: "yelp", n: 120, seed: 9, shards: 2, in: in}); err == nil {
			t.Fatal("strict replay of a damaged segment file should fail")
		}
	}
	salvaged := func(in string) *aggResult {
		t.Helper()
		res, err := aggregate(aggOptions{site: "yelp", n: 120, seed: 9, shards: 2, in: in, salvage: true})
		if err != nil {
			t.Fatalf("salvage replay: %v", err)
		}
		return res
	}

	// Torn tail: the file loses its directory and its last segments;
	// salvage keeps the longest valid prefix.
	torn := filepath.Join(dir, "torn.seg")
	if err := os.WriteFile(torn, orig[:len(orig)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	strictFails(torn)
	res := salvaged(torn)
	if res.segStats.Rows == 0 || res.segStats.Rows >= n {
		t.Fatalf("torn-tail salvage kept %d rows of %d generated, want a nonzero strict prefix", res.segStats.Rows, n)
	}

	// One flipped payload byte in the first segment, directory intact:
	// exactly that segment is quarantined, every other row replays.
	bad := append([]byte(nil), orig...)
	bad[100] ^= 0xff
	flip := filepath.Join(dir, "flip.seg")
	if err := os.WriteFile(flip, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	strictFails(flip)
	res = salvaged(flip)
	if res.segStats.Quarantined != 1 {
		t.Fatalf("corrupt-payload salvage quarantined %d segments, want 1", res.segStats.Quarantined)
	}
	if res.segStats.Rows != n-64 {
		t.Fatalf("corrupt-payload salvage kept %d rows, want %d (all but the 64-row bad segment)", res.segStats.Rows, n-64)
	}

	tsv := filepath.Join(dir, "clicks.tsv")
	ot := testGen
	ot.format, ot.out = "tsv", tsv
	if _, err := generate(ot); err != nil {
		t.Fatal(err)
	}
	if _, err := aggregate(aggOptions{site: "yelp", n: 120, seed: 9, in: tsv, salvage: true}); err == nil {
		t.Fatal("-salvage on tsv input should be rejected")
	}
}

// TestGenRejectsBadFsync: an invalid -fsync value fails before any
// file is created.
func TestGenRejectsBadFsync(t *testing.T) {
	dir := t.TempDir()
	o := testGen
	o.format, o.fsync, o.out = "tsv", "sometimes", filepath.Join(dir, "x")
	if _, err := generate(o); err == nil {
		t.Fatal("bad fsync policy should fail")
	}
	if _, err := os.Stat(o.out); !os.IsNotExist(err) {
		t.Fatal("failed validation must not create the output file")
	}
}

// TestGenRejectsBadOptions: option validation errors before any file
// is created.
func TestGenRejectsBadOptions(t *testing.T) {
	dir := t.TempDir()
	o := testGen
	o.out = filepath.Join(dir, "x")
	o.format = "parquet"
	if _, err := generate(o); err == nil {
		t.Fatal("unknown format should fail")
	}
	o.format = "tsv"
	o.site = "ebay"
	if _, err := generate(o); err == nil {
		t.Fatal("unknown site should fail")
	}
	if _, err := os.Stat(o.out); !os.IsNotExist(err) {
		t.Fatal("failed option validation must not create the output file")
	}
}

// TestGenRejectsNegativeSizes: a negative -cookies or -events fails
// with an error — not a generator-goroutine panic or an empty log —
// and leaves neither the output path nor its temp file behind.
func TestGenRejectsNegativeSizes(t *testing.T) {
	for _, format := range []string{"tsv", "seg"} {
		for _, bad := range []struct{ events, cookies int }{{4000, -1}, {-5, 600}} {
			dir := t.TempDir()
			o := testGen
			o.format, o.out = format, filepath.Join(dir, "clicks.out")
			o.events, o.cookies = bad.events, bad.cookies
			if _, err := generate(o); err == nil {
				t.Fatalf("%s events=%d cookies=%d: gen should fail", format, bad.events, bad.cookies)
			}
			for _, path := range []string{o.out, o.out + ".tmp"} {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("%s events=%d cookies=%d: %s left behind", format, bad.events, bad.cookies, path)
				}
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Fatalf("%s events=%d cookies=%d: failed gen left files behind: %v %v",
					format, bad.events, bad.cookies, ents, err)
			}
		}
	}
}

// TestCookieHint: the -cookies bitmap hint must not change any
// estimate, only the counting structure.
func TestCookieHint(t *testing.T) {
	dir := t.TempDir()
	segf := filepath.Join(dir, "clicks.seg")
	o := testGen
	o.format, o.out = "seg", segf
	if _, err := generate(o); err != nil {
		t.Fatal(err)
	}
	plain, err := aggregate(aggOptions{site: "yelp", n: 120, seed: 9, in: segf})
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := aggregate(aggOptions{site: "yelp", n: 120, seed: 9, in: segf, cookies: 600})
	if err != nil {
		t.Fatal(err)
	}
	if p, h := demandBytes(t, plain.sa), demandBytes(t, hinted.sa); string(p) != string(h) {
		t.Fatal("-cookies hint changed demand estimates")
	}
}
