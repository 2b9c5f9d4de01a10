// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper (regenerating the analysis behind it), plus
// ablation benchmarks for two design choices made in this
// reproduction, the lazy greedy set cover and the iFUB exact diameter,
// which ROADMAP.md's Architecture section describes. Run with:
//
//	go test -bench=. -benchmem
//
// Setup (synthetic web generation, log simulation) happens outside the
// timed region; the timed body is the analysis that produces the
// artifact.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/demand"
	"repro/internal/entity"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/logs"
	"repro/internal/seg"
	"repro/internal/synth"
)

// benchStudy caches one mid-scale study across benchmarks so the
// expensive generation cost is paid once per `go test -bench` run.
var benchStudy = core.NewStudy(core.Config{
	Seed:            1,
	Entities:        6000,
	DirectoryHosts:  9000,
	CatalogN:        8000,
	EventsPerSource: 160000,
})

func benchIndex(b *testing.B, d entity.Domain, a entity.Attr) *index.Index {
	b.Helper()
	idx, err := benchStudy.Index(d, a)
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

// BenchmarkTable1Domains regenerates Table 1 (domain/attribute list).
func BenchmarkTable1Domains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchStudy.Table1()
		if len(rows) != 9 {
			b.Fatal("bad table1")
		}
	}
}

// BenchmarkFig1PhoneCoverage regenerates a Figure 1 panel: the
// k-coverage curves of the phone attribute, one sub-benchmark per
// local-business domain.
func BenchmarkFig1PhoneCoverage(b *testing.B) {
	for _, d := range entity.LocalBusinessDomains {
		idx := benchIndex(b, d, entity.AttrPhone)
		tPts := coverage.LogSpacedT(len(idx.Sites))
		b.Run(string(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := coverage.KCoverage(idx, core.KCoverageMax, tPts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2HomepageCoverage regenerates a Figure 2 panel
// (homepage-attribute k-coverage) for the restaurants domain.
func BenchmarkFig2HomepageCoverage(b *testing.B) {
	idx := benchIndex(b, entity.Restaurants, entity.AttrHomepage)
	tPts := coverage.LogSpacedT(len(idx.Sites))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coverage.KCoverage(idx, core.KCoverageMax, tPts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3BookISBNCoverage regenerates Figure 3 (book ISBN
// k-coverage).
func BenchmarkFig3BookISBNCoverage(b *testing.B) {
	idx := benchIndex(b, entity.Books, entity.AttrISBN)
	tPts := coverage.LogSpacedT(len(idx.Sites))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coverage.KCoverage(idx, core.KCoverageMax, tPts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4aReviewCoverage regenerates Figure 4(a): restaurant
// review k-coverage.
func BenchmarkFig4aReviewCoverage(b *testing.B) {
	idx := benchIndex(b, entity.Restaurants, entity.AttrReview)
	tPts := coverage.LogSpacedT(len(idx.Sites))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coverage.KCoverage(idx, core.KCoverageMax, tPts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4bAggregateReviews regenerates Figure 4(b): fraction of
// all review pages covered by the top-t sites.
func BenchmarkFig4bAggregateReviews(b *testing.B) {
	idx := benchIndex(b, entity.Restaurants, entity.AttrReview)
	tPts := coverage.LogSpacedT(len(idx.Sites))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coverage.AggregateCoverage(idx, tPts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5GreedySetCover regenerates Figure 5: the greedy
// set-cover ordering of restaurant-homepage sites.
func BenchmarkFig5GreedySetCover(b *testing.B) {
	idx := benchIndex(b, entity.Restaurants, entity.AttrHomepage)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coverage.GreedySetCover(idx, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6DemandDistribution regenerates Figure 6: the CDF and
// rank-share PDF of unique-cookie demand, per site.
func BenchmarkFig6DemandDistribution(b *testing.B) {
	for _, site := range logs.Sites {
		ests, err := benchStudy.Demand(site)
		if err != nil {
			b.Fatal(err)
		}
		vec := demand.UniqueVector(ests[logs.Search])
		b.Run(string(site), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := demand.DemandCDF(vec, 100); err != nil {
					b.Fatal(err)
				}
				if _, err := demand.DemandPDF(vec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7DemandVsReviews regenerates Figure 7: per-review-bin
// z-scored demand for all three sites and both sources.
func BenchmarkFig7DemandVsReviews(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchStudy.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8ValueAdd regenerates Figure 8: relative value-add
// VA(n)/VA(0) curves.
func BenchmarkFig8ValueAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchStudy.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2GraphMetrics regenerates one Table 2 row: components,
// largest-component share and exact diameter of the entity-site graph.
func BenchmarkTable2GraphMetrics(b *testing.B) {
	for _, pair := range []struct {
		d entity.Domain
		a entity.Attr
	}{
		{entity.Books, entity.AttrISBN},
		{entity.Restaurants, entity.AttrPhone},
		{entity.Restaurants, entity.AttrHomepage},
	} {
		g, err := benchStudy.Graph(pair.d, pair.a)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(pair.d)+"/"+string(pair.a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := g.ComputeMetrics()
				if m.Diameter == 0 {
					b.Fatal("degenerate graph")
				}
			}
		})
	}
}

// BenchmarkFig9Robustness regenerates Figure 9: the largest-component
// share after removing the top-k sites, k = 0..10.
func BenchmarkFig9Robustness(b *testing.B) {
	g, err := benchStudy.Graph(entity.Restaurants, entity.AttrPhone)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := g.RobustnessCurve(core.Fig9MaxK)
		if len(curve) != core.Fig9MaxK+1 {
			b.Fatal("bad curve")
		}
	}
}

// BenchmarkEndToEndPipeline measures the full extraction path on a
// small web: render HTML → tokenize → match → index, via the streaming
// pipeline.
func BenchmarkEndToEndPipeline(b *testing.B) {
	web, err := synth.Generate(synth.Config{
		Domain: entity.Banks, Entities: 300, DirectoryHosts: 450, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := web.ExtractIndexes(nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractIndexes is the extraction cold build: the web's pages
// rendered and streamed through extract.Session by ExtractIndexes, and
// the mentions built into per-attribute indexes.
func BenchmarkExtractIndexes(b *testing.B) {
	web, err := synth.Generate(synth.Config{
		Domain: entity.Banks, Entities: 300, DirectoryHosts: 450, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idxs, err := web.ExtractIndexes(nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			if idxs[entity.AttrPhone].TotalPostings() == 0 {
				b.Fatal("empty phone index")
			}
		}
	})
}

// BenchmarkRunAll measures the full reproduction — every table and
// figure — through the experiment registry, serial (workers=1) vs
// parallel (workers=GOMAXPROCS). Each iteration builds a fresh Study so
// the artifact engine's fan-out is what is timed; the parallel/serial
// ratio is the headline speedup of the concurrent artifact engine.
func BenchmarkRunAll(b *testing.B) {
	cfg := core.Config{
		Seed:            2,
		Entities:        2000,
		DirectoryHosts:  3000,
		CatalogN:        5000,
		EventsPerSource: 100000,
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewStudy(cfg)
				rep, err := s.RunAll(context.Background(), bc.workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Results) != len(core.ExperimentIDs()) {
					b.Fatal("incomplete run")
				}
			}
		})
	}
}

// BenchmarkGenerate measures the §4 demand workload end to end under
// three architectures:
//
//   - serial-ref: serial generation (GenerateOrderedRefs with one
//     generator) folded on the consumer goroutine in DefaultFoldBatch
//     batches through Aggregator.FoldBatch — struct-of-arrays state,
//     cache-blocked per-block delta folds, no URL ever built or
//     parsed. TestFoldBatchMatchesAddRef pins it bit-identical to the
//     scalar AddRef loop.
//   - serial-ref-scalar: the same stream folded one AddRef at a time,
//     kept as the columnar row's ablation baseline.
//   - pipeline/gen=N: the fully concurrent path (GeneratePipeline).
//
// All rows share the same aggregation structures (cookie bitmap hint
// included), so the deltas isolate the layout, not tuning.
//
// Each row also reports "bytes/click": the aggregator's modelled
// state traffic (Aggregator.BytesMoved — ref stream + visit column
// touches + cookie-structure bytes, computed from column widths and
// touch counts) divided by clicks folded, so the measurement tracks
// bandwidth, not just ns/op.
func BenchmarkGenerate(b *testing.B) {
	cat, err := benchStudy.Catalog(logs.Amazon)
	if err != nil {
		b.Fatal(err)
	}
	cfg := demand.SimConfig{Events: 200000, Cookies: 30000, Seed: 7}
	serialGen := demand.PipelineConfig{Generators: 1}
	events := func(b *testing.B) { b.SetBytes(int64(2 * cfg.Events)) }
	perClick := func(b *testing.B, moved uint64) {
		b.ReportMetric(float64(moved)/float64(b.N)/float64(2*cfg.Events), "bytes/click")
	}

	b.Run("serial-ref", func(b *testing.B) {
		events(b)
		var moved uint64
		buf := make([]demand.ClickRef, 0, demand.DefaultFoldBatch)
		for i := 0; i < b.N; i++ {
			agg := demand.NewAggregator(cat)
			agg.SetCookieHint(cfg.Cookies)
			if err := demand.GenerateOrderedRefs(cat, cfg, serialGen, func(r demand.ClickRef) error {
				buf = append(buf, r)
				if len(buf) == cap(buf) {
					agg.FoldBatch(buf)
					buf = buf[:0]
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			agg.FoldBatch(buf)
			buf = buf[:0]
			moved += agg.BytesMoved()
		}
		perClick(b, moved)
	})
	b.Run("serial-ref-scalar", func(b *testing.B) {
		events(b)
		var moved uint64
		for i := 0; i < b.N; i++ {
			agg := demand.NewAggregator(cat)
			agg.SetCookieHint(cfg.Cookies)
			if err := demand.GenerateOrderedRefs(cat, cfg, serialGen, func(r demand.ClickRef) error {
				agg.AddRef(r)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			moved += agg.BytesMoved()
		}
		perClick(b, moved)
	})
	for _, gens := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("pipeline/gen=%d", gens), func(b *testing.B) {
			events(b)
			var moved uint64
			for i := 0; i < b.N; i++ {
				sa, err := demand.GeneratePipeline(cat, cfg, demand.PipelineConfig{
					Generators: gens, Shards: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				moved += sa.BytesMoved()
			}
			perClick(b, moved)
		})
	}
}

// BenchmarkSegment measures the persistent click-log boundary under
// the columnar segment store (internal/seg) at BenchmarkGenerate's
// workload scale (400k clicks):
//
//   - write: ordered parallel generation encoded straight into segment
//     blocks — what `clicklog gen -format seg` costs. Reports the
//     encoded "bytes/click" (the on-disk footprint the per-column
//     varint/RLE blocks achieve vs 16 B in RAM and ~60 B as TSV).
//   - replay: decode + FeedRefs into 4 shard workers — what replaying
//     a persisted log into demand aggregates costs. No URL is ever
//     formatted or parsed; the PR 7 contract is replay throughput at
//     or above the pipeline/gen=4 end-to-end rate (which must also
//     synthesize the clicks it folds).
//   - replay-pushdown/src: the same replay filtered to the search
//     stream; source runs are contiguous so zone maps must prune the
//     browse half, reported as "skippedsegs/op".
func BenchmarkSegment(b *testing.B) {
	cat, err := benchStudy.Catalog(logs.Amazon)
	if err != nil {
		b.Fatal(err)
	}
	cfg := demand.SimConfig{Events: 200000, Cookies: 30000, Seed: 7}
	p := demand.PipelineConfig{Generators: 4}
	events := func(b *testing.B) { b.SetBytes(int64(2 * cfg.Events)) }

	var blob bytes.Buffer
	w := seg.NewWriter(&blob, 0)
	if err := demand.GenerateOrderedRefs(cat, cfg, p, w.Add); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("write", func(b *testing.B) {
		events(b)
		buf := bytes.NewBuffer(make([]byte, 0, blob.Len()))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			sw := seg.NewWriter(buf, 0)
			if err := demand.GenerateOrderedRefs(cat, cfg, p, sw.Add); err != nil {
				b.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(blob.Len())/float64(2*cfg.Events), "bytes/click")
	})
	replay := func(b *testing.B, pred seg.Predicate, wantSkips bool) {
		events(b)
		var skipped int
		for i := 0; i < b.N; i++ {
			r, err := seg.NewReader(bytes.NewReader(blob.Bytes()), int64(blob.Len()))
			if err != nil {
				b.Fatal(err)
			}
			sa := demand.NewShardedAggregator(cat, 4)
			sa.SetCookieHint(cfg.Cookies)
			emit, done := sa.FeedRefs()
			st, err := r.Replay(pred, emit)
			done()
			if err != nil {
				b.Fatal(err)
			}
			if st.Matched == 0 || (wantSkips && st.Skipped == 0) {
				b.Fatalf("replay stats %+v", st)
			}
			skipped += st.Skipped
		}
		b.ReportMetric(float64(skipped)/float64(b.N), "skippedsegs/op")
	}
	b.Run("replay", func(b *testing.B) { replay(b, seg.All(), false) })
	b.Run("replay-pushdown/src", func(b *testing.B) { replay(b, seg.All().WithSrc(0), true) })
}

// BenchmarkGenerateOnly isolates click synthesis (no aggregation):
// ordered generation from one worker against N workers leapfrogging
// over the event windows — the raw throughput the stream-splitting
// scheme unlocks, net of the reorder buffer.
func BenchmarkGenerateOnly(b *testing.B) {
	cat, err := benchStudy.Catalog(logs.Amazon)
	if err != nil {
		b.Fatal(err)
	}
	cfg := demand.SimConfig{Events: 200000, Cookies: 30000, Seed: 7}
	for _, gens := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("gen=%d", gens)
		if gens == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(2 * cfg.Events))
			for i := 0; i < b.N; i++ {
				n := 0
				if err := demand.GenerateOrderedRefs(cat, cfg, demand.PipelineConfig{Generators: gens},
					func(demand.ClickRef) error {
						n++
						return nil
					}); err != nil {
					b.Fatal(err)
				}
				if n != 2*cfg.Events {
					b.Fatal("short stream")
				}
			}
		})
	}
}

// --- Ablations (ROADMAP.md Architecture: coverage and graph layers) ---

// BenchmarkAblationSetCoverLazy vs ...Naive: the lazy-greedy heap
// against the textbook rescanning greedy.
func BenchmarkAblationSetCoverLazy(b *testing.B) {
	idx := benchIndex(b, entity.Banks, entity.AttrPhone)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coverage.GreedySetCover(idx, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSetCoverNaive(b *testing.B) {
	idx := benchIndex(b, entity.Banks, entity.AttrPhone)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coverage.GreedySetCoverNaive(idx, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDiameterIFUB vs ...Brute: iFUB exact diameter vs
// the paper's all-sources BFS.
func ablationGraph(b *testing.B) (*graph.Bipartite, graph.Components) {
	b.Helper()
	// A dedicated small web keeps the brute-force baseline (quadratic in
	// nodes times edges) tractable; the speedup ratio is what matters.
	web, err := synth.Generate(synth.Config{
		Domain: entity.Banks, Entities: 800, DirectoryHosts: 1200, Seed: 13,
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromIndex(web.DirectIndexes()[entity.AttrPhone])
	if err != nil {
		b.Fatal(err)
	}
	return g, g.AllComponents()
}

func BenchmarkAblationDiameterIFUB(b *testing.B) {
	g, c := ablationGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := g.DiameterLargest(c); d == 0 {
			b.Fatal("zero diameter")
		}
	}
}

func BenchmarkAblationDiameterBrute(b *testing.B) {
	g, c := ablationGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := g.DiameterBrute(c); d == 0 {
			b.Fatal("zero diameter")
		}
	}
}

// BenchmarkWARCRoundTrip measures archive write+read throughput on an
// in-memory gzipped WARC.
func BenchmarkWARCRoundTrip(b *testing.B) {
	web, err := synth.Generate(synth.Config{
		Domain: entity.Banks, Entities: 200, DirectoryHosts: 300, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		cdx, err := web.WriteWARC(&buf, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(cdx.Entries) == 0 {
			b.Fatal("no records")
		}
		if _, _, err := synth.ExtractWARC(bytes.NewReader(buf.Bytes()), web.DB, nil); err != nil {
			b.Fatal(err)
		}
	}
}
