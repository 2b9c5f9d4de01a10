package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/entity"
	"repro/internal/extract"
	"repro/internal/fsx"
	"repro/internal/htmlx"
	"repro/internal/index"
	"repro/internal/logs"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/seg"
)

// A traced run measures every layer from outside, one call at a time,
// with serial workers (Workers=1, pool=1) on one processor
// (GOMAXPROCS=1) so that layer times add up — even a one-worker demand
// pipeline overlaps generation with its consumer on a second processor —
// and with obs tracing on: each measured call is a bench/<layer> span
// next to the program's own build/… and demand/… spans, and the trace
// is written to <out>/traces/<workload>.trace.json.
//
// The same census of layers runs whichever workload is named, so that
// every traced run reports every per-layer metric. The workload picks
// which study configuration the shared study layers are measured on,
// and which path core.path_ms and core.unattributed_ms attribute; the
// census section holding that path then repeats, so that its layers and
// residual are medians over several measurements.

var perLayer = []metricSpec{
	{"synth.generate_ms", "ms", "lower"},
	{"index.direct_ms", "ms", "lower"},
	{"classify.train_ms", "ms", "lower"},
	{"synth.render_ms", "ms", "lower"},
	{"synth.render_mb", "MB", "lower"},
	{"htmlx.tokenize_ms", "ms", "lower"},
	{"extract.automaton_ms", "ms", "lower"},
	{"extract.match_ms", "ms", "lower"},
	{"extract.pages", "count", "lower"},
	{"index.build_ms", "ms", "lower"},
	{"demand.catalog_ms", "ms", "lower"},
	{"demand.pipeline_ms", "ms", "lower"},
	{"graph.build_ms", "ms", "lower"},
	{"graph.analysis_ms", "ms", "lower"},
	{"coverage.analysis_ms", "ms", "lower"},
	{"valueadd.analysis_ms", "ms", "lower"},
	{"core.serial_ms", "ms", "lower"},
	{"core.parallel_speedup", "x", "higher"},
	{"demand.gen_ms", "ms", "lower"},
	{"seg.encode_ms", "ms", "lower"},
	{"seg.bytes_per_click", "B/click", "lower"},
	{"seg.decode_ms", "ms", "lower"},
	{"seg.skip_ratio", "ratio", "higher"},
	{"demand.route_fold_ms", "ms", "lower"},
	{"demand.bytes_per_click", "B/click", "lower"},
	{"logs.format_ms", "ms", "lower"},
	{"logs.parse_ms", "ms", "lower"},
	{"logs.bytes_per_click", "B/click", "lower"},
	{"demand.resolve_fold_ms", "ms", "lower"},
	{"fsx.write_ms", "ms", "lower"},
	{"clicklog.seg_write_mclicks_per_s", "Mclicks/s", "higher"},
	{"clicklog.seg_replay_mclicks_per_s", "Mclicks/s", "higher"},
	{"clicklog.seg_pushdown_mclicks_per_s", "Mclicks/s", "higher"},
	{"clicklog.tsv_write_mclicks_per_s", "Mclicks/s", "higher"},
	{"clicklog.tsv_replay_mclicks_per_s", "Mclicks/s", "higher"},
	{"serve.handler_mean_us", "us", "lower"},
	{"serve.status_304_ratio", "ratio", "higher"},
	{"http.overhead_mean_us", "us", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"report.marshal_ms", "ms", "lower"},
	{"serve.cold_overhead_ms", "ms", "lower"},
	{"serve.heap_per_req_kb", "KB", "lower"},
	{"serve.lru_evictions", "count", "lower"},
	{"core.path_ms", "ms", "lower"},
	{"core.unattributed_ms", "ms", "lower"},
}

// unattributedLimit is the largest share of core.path_ms the layers may
// leave unexplained before a full-size traced run fails. On a shared host
// two timings of the same work differ by 10% or more, and path and
// layers are timed separately, so one run's residual wanders by up to
// about ±12% even as a median of ownReps measurements (calibration,
// README); the limit sits above that noise, and the target of 10% holds
// for the median over runs.
const unattributedLimit = 0.2

// census accumulates one traced run's measurements.
type census struct {
	p        params
	procs    int                // GOMAXPROCS outside the traced run
	m        map[string]float64 // per-layer metric values
	paths    map[string]float64 // workload → traced path time (ms)
	covered  map[string]float64 // workload → Σ of its path's layer times (ms)
	attempts int
	failures []error
}

// time runs one call as a bench/<span> span, accounts its error and
// returns its milliseconds.
func (c *census) time(span string, f func() error) float64 {
	sp := obs.StartSpan("bench/" + span)
	t0 := time.Now()
	err := f()
	d := ms(time.Since(t0))
	sp.End()
	c.attempts++
	if err != nil {
		c.failures = append(c.failures, fmt.Errorf("%s: %w", span, err))
	}
	return d
}

// step times one call and adds its milliseconds to metric.
func (c *census) step(metric string, f func() error) float64 {
	d := c.time(metric, f)
	c.m[metric] += d
	return d
}

func (c *census) fail(err error) {
	c.failures = append(c.failures, err)
}

// ownReps is the least number of times a full-size traced run measures
// the census section holding the named workload's path: one measurement
// of a path, or of one of its layers, differs from the next by about 10%
// on a shared host.
const ownReps = 3

// traceCapacity holds every span of a traced run; one census records
// about 24k, mostly the demand pipeline's per-batch spans.
const traceCapacity = 1 << 18

// runTraced measures the whole census once, then repeats the section
// holding the workload's path at least ownReps times in all and while
// the measurement time allows, reporting each metric's median over the
// repetitions that measured it.
func runTraced(w workload, p params, logw io.Writer) (result, error) {
	traceDir := filepath.Join(p.outDir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	obs.EnableTracing(traceCapacity)
	defer obs.DisableTracing()
	var (
		runs     []map[string]float64
		attempts int
		failures []error
		budget   = time.Duration(p.seconds * float64(time.Second))
		start    = time.Now()
	)
	for rep := 1; ; rep++ {
		c := &census{p: p, procs: procs, m: map[string]float64{}, paths: map[string]float64{}, covered: map[string]float64{}}
		if rep == 1 {
			c.measure(w.name)
		} else {
			runtime.GC()
			c.section(w.name)()
		}
		if path, ok := c.paths[w.name]; ok {
			c.m["core.path_ms"] = path
			c.m["core.unattributed_ms"] = path - c.covered[w.name]
		}
		runs = append(runs, c.m)
		attempts += c.attempts
		failures = append(failures, c.failures...)
		if len(failures) > 0 || p.maxOps > 0 || (rep >= ownReps && time.Since(start) > budget) {
			break
		}
	}
	if err := obs.WriteTraceFile(filepath.Join(traceDir, w.name+".trace.json")); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	for i, f := range failures {
		if i < 5 {
			fmt.Fprintf(logw, "bench: %s traced: %v\n", w.name, f)
		}
	}
	res := result{Correct: len(failures) == 0, Attempted: attempts, Failed: len(failures), Metrics: map[string]metric{}}
	for _, spec := range perLayer {
		var vals []float64
		for _, r := range runs {
			if v, ok := r[spec.name]; ok {
				vals = append(vals, v)
			}
		}
		v := 0.0 // a failed section leaves its metrics unmeasured
		if len(vals) > 0 {
			v = median(vals)
		}
		res.Metrics[spec.name] = metric{v, spec.unit}
	}
	path, unattr := res.Metrics["core.path_ms"].Value, res.Metrics["core.unattributed_ms"].Value
	if p.sz.full && math.Abs(unattr) > unattributedLimit*path {
		fmt.Fprintf(logw, "bench: %s: %.1f ms of the %.1f ms traced path is unattributed (limit %.0f%%)\n",
			w.name, unattr, path, 100*unattributedLimit)
		res.Correct = false
	}
	return res, nil
}

// measure runs the whole census. The study section attributes a study
// with extraction for study-extract, without otherwise.
func (c *census) measure(workload string) {
	study := c.section("study-direct")
	if workload == "study-extract" {
		study = c.section(workload)
	}
	for _, section := range []func(){study, c.clicklogCensus, c.serveCensus} {
		runtime.GC() // each section starts clear of the previous one's garbage
		section()
	}
}

// section returns the census section holding workload's path.
func (c *census) section(workload string) func() {
	switch workload {
	case "clicklog":
		return c.clicklogCensus
	case "serve-warm", "serve-coldscan":
		return c.serveCensus
	}
	return func() { c.studyCensus(workload == "study-extract") }
}

// directLayers and extractLayers list the layer metrics whose sum
// attributes a serial RunAll without and with extraction.
var (
	directLayers = []string{"synth.generate_ms", "index.direct_ms", "demand.catalog_ms", "demand.pipeline_ms",
		"graph.build_ms", "graph.analysis_ms", "coverage.analysis_ms", "valueadd.analysis_ms"}
	extractLayers = []string{"synth.generate_ms", "classify.train_ms", "extract.automaton_ms", "synth.render_ms",
		"htmlx.tokenize_ms", "extract.match_ms", "index.build_ms", "demand.catalog_ms", "demand.pipeline_ms",
		"graph.build_ms", "graph.analysis_ms", "coverage.analysis_ms", "valueadd.analysis_ms"}
)

// studyCensus measures every study layer on one configuration. The
// extraction layers run over the same webs: a Study's webs do not depend
// on UseExtraction, and extraction must rebuild the direct indexes
// exactly. The path attributed is a serial RunAll of the workload's
// configuration (extraction on for study-extract, off otherwise), timed
// before and after the layers and averaged, so that drift while the
// layers run cancels to first order.
func (c *census) studyCensus(extraction bool) {
	seed := derive(c.p.seed, "census-study", 0)
	name, layers := "study-direct", directLayers
	if extraction {
		name, layers = "study-extract", extractLayers
	}
	cfg := studyConfig(c.p.sz, seed, extraction, 1)
	before := c.runAll(name+".serial", cfg, 1)
	runtime.GC()
	c.studyPass(studyConfig(c.p.sz, seed, false, 1))
	c.paths[name] = (before + c.runAll(name+".serial", cfg, 1)) / 2
	for _, l := range layers {
		c.covered[name] += c.m[l]
	}
	serial := c.paths[name]
	runtime.GOMAXPROCS(c.procs)
	parallel := c.runAll("core.parallel", studyConfig(c.p.sz, seed, extraction, 0), 0)
	runtime.GOMAXPROCS(1)
	c.m["core.serial_ms"] = serial
	c.m["core.parallel_speedup"] = serial / parallel
}

// runAll times one cold serial or parallel RunAll on a fresh Study,
// starting from a collected heap.
func (c *census) runAll(span string, cfg core.Config, workers int) float64 {
	runtime.GC()
	return c.time(span, func() error {
		_, err := core.NewStudy(cfg).RunAll(context.Background(), workers)
		return err
	})
}

type graphPair struct {
	d entity.Domain
	a entity.Attr
}

// table2Pairs are the (domain, attribute) graphs of Table 2 and Fig 9.
func table2Pairs() []graphPair {
	pairs := []graphPair{{entity.Books, entity.AttrISBN}}
	for _, a := range []entity.Attr{entity.AttrPhone, entity.AttrHomepage} {
		for _, d := range entity.LocalBusinessDomains {
			pairs = append(pairs, graphPair{d, a})
		}
	}
	return pairs
}

// studyPass builds one direct study's artifacts class by class through
// the Study API, in the order RunAll's builds depend on each other,
// measures the extraction layers over its webs, then runs the
// experiment analyses grouped by the package doing the work.
func (c *census) studyPass(cfg core.Config) {
	st := core.NewStudy(cfg)
	for _, d := range entity.AllDomains {
		c.step("synth.generate_ms", func() error { _, err := st.Web(d); return err })
	}
	for _, d := range entity.AllDomains {
		c.step("index.direct_ms", func() error { _, err := st.Indexes(d); return err })
	}
	c.step("classify.train_ms", func() error { _, err := st.ReviewClassifier(); return err })
	c.extractionLayers(st)
	for _, site := range logs.Sites {
		c.step("demand.catalog_ms", func() error { _, err := st.Catalog(site); return err })
	}
	for _, site := range logs.Sites {
		c.step("demand.pipeline_ms", func() error { _, err := st.Demand(site); return err })
	}
	for _, pr := range table2Pairs() {
		c.step("graph.build_ms", func() error { _, err := st.Graph(pr.d, pr.a); return err })
	}
	for _, a := range []struct {
		name string
		ids  []string
	}{
		{"coverage.analysis_ms", []string{"fig1", "fig2", "fig3", "fig4", "fig5"}},
		{"valueadd.analysis_ms", []string{"fig6", "fig7", "fig8"}},
		{"graph.analysis_ms", []string{"table2", "fig9"}},
	} {
		c.step(a.name, func() error {
			_, err := st.RunExperiments(context.Background(), a.ids, 1)
			return err
		})
	}
}

// extractionLayers splits the extraction pipeline over st's webs: the
// session set-up (extract.New and NewSession, which builds the domain's
// Aho–Corasick automaton); render alone, render + streaming tokenize,
// render + the full session (tokenize, match, classify) — each of those
// layers is the difference between consecutive passes; and the index
// build alone, fed the mentions the session pass found. The built
// indexes must equal st's direct ones.
func (c *census) extractionLayers(st *core.Study) {
	var pages, bytesOut int
	var str htmlx.Streamer
	noop := func([]byte) {}
	type hit struct {
		site int
		m    extract.Mention
	}
	for _, d := range entity.AllDomains {
		w, err := st.Web(d)
		if err != nil {
			c.fail(err)
			return
		}
		var clf *classify.NaiveBayes
		if d == entity.Restaurants {
			if clf, err = st.ReviewClassifier(); err != nil {
				c.fail(err)
				return
			}
		}
		var sess *extract.Session
		c.step("extract.automaton_ms", func() error {
			x, err := extract.New(w.DB, clf)
			if err != nil {
				return err
			}
			sess, err = x.NewSession()
			return err
		})
		render := c.time("pass.render", func() error {
			for i := range w.Sites {
				w.RenderPages(&w.Sites[i], func(_ string, html []byte) {
					pages++
					bytesOut += len(html)
				})
			}
			return nil
		})
		tokenize := c.time("pass.render+tokenize", func() error {
			for i := range w.Sites {
				w.RenderPages(&w.Sites[i], func(_ string, html []byte) { str.Stream(html, noop, noop) })
			}
			return nil
		})
		var hits []hit
		var reviewPages []int
		match := c.time("pass.render+session", func() error {
			for i := range w.Sites {
				w.RenderPages(&w.Sites[i], func(_ string, html []byte) {
					review := false
					for _, m := range sess.Page(html) {
						hits = append(hits, hit{i, m})
						review = review || m.Attr == entity.AttrReview
					}
					if review {
						reviewPages = append(reviewPages, i)
					}
				})
			}
			return nil
		})
		c.m["synth.render_ms"] += render
		c.m["htmlx.tokenize_ms"] += tokenize - render
		c.m["extract.match_ms"] += match - tokenize

		// The build synth.Web.ExtractIndexes does with one worker.
		built := map[entity.Attr]*index.Index{}
		c.step("index.build_ms", func() error {
			builders := map[entity.Attr]*index.ShardedBuilder{}
			for _, a := range entity.AttrsFor(d) {
				n := w.Config.Entities
				if a == entity.AttrHomepage {
					n = len(w.DB.WithHomepage())
				}
				builders[a] = index.NewShardedBuilder(d, a, n, 4)
			}
			for _, h := range hits {
				if b, ok := builders[h.m.Attr]; ok {
					b.Add(w.Sites[h.site].Host, h.m.EntityID)
				}
			}
			for _, i := range reviewPages {
				builders[entity.AttrReview].AddPage(w.Sites[i].Host)
			}
			for a, b := range builders {
				idx, err := b.Build()
				if err != nil {
					return err
				}
				built[a] = idx
			}
			return nil
		})
		want, err := st.Indexes(d)
		if err != nil {
			c.fail(err)
			return
		}
		for a, idx := range built {
			if w := want[a]; w == nil || idx.TotalPostings() != w.TotalPostings() || idx.NumSites() != w.NumSites() || idx.TotalPages() != w.TotalPages() {
				c.fail(fmt.Errorf("%s/%s: index built from the session's mentions differs from the study's", d, a))
			}
		}
	}
	c.m["synth.render_mb"] = float64(bytesOut) / 1e6
	c.m["extract.pages"] = float64(pages)
}

// clicklogCensus runs one serial cycle as the clicklog path, then each
// of its layers alone over the same inputs.
func (c *census) clicklogCensus() {
	p := c.p
	p.setupReps = 1
	bi, setups, err := prepareClicklog(p)
	c.attempts += len(setups)
	if err != nil {
		c.fail(err)
		return
	}
	b := bi.(*clicklogBench)
	defer func() {
		if err := b.close(); err != nil {
			c.fail(err)
		}
	}()
	clicks := float64(b.clicks())

	// The path is a serial cycle, timed before and after the layers.
	var stt [2]stageTimes
	cycle := func(k int) float64 {
		runtime.GC()
		return c.time("clicklog.serial", func() error {
			var err error
			stt[k], err = b.cycle(1)
			return err
		})
	}
	before := cycle(0)
	runtime.GC()

	serial := demand.PipelineConfig{Generators: 1, Shards: 1}
	noRef := func(demand.ClickRef) error { return nil }
	for i := 0; i < 2; i++ { // the cycle generates twice: seg, then tsv
		c.step("demand.gen_ms", func() error { return demand.GenerateOrderedRefs(b.cat, b.sim, serial, noRef) })
	}
	refs := make([]demand.ClickRef, 0, b.clicks())
	if err := demand.GenerateOrderedRefs(b.cat, b.sim, serial, func(r demand.ClickRef) error {
		refs = append(refs, r)
		return nil
	}); err != nil {
		c.fail(err)
		return
	}

	var segOut chunkWriter
	c.step("seg.encode_ms", func() error {
		w := seg.NewWriter(&segOut, 0)
		for _, r := range refs {
			if err := w.Add(r); err != nil {
				return err
			}
		}
		return w.Close()
	})
	c.m["seg.bytes_per_click"] = float64(segOut.n) / clicks

	noFold := func([]demand.ClickRef) {}
	var pushdown seg.ReplayStats
	for _, pred := range []seg.Predicate{seg.All(), seg.All().WithSrc(b.browse)} {
		c.step("seg.decode_ms", func() error {
			r, err := seg.OpenFile(b.segPath())
			if err != nil {
				return err
			}
			defer r.Close()
			pushdown, err = r.Replay(pred, noFold)
			return err
		})
	}
	c.m["seg.skip_ratio"] = float64(pushdown.Skipped) / float64(pushdown.Segments)

	// refs are in canonical order: every search click, then every browse
	// click, so the pushdown replay folds the second half.
	for k, part := range [][]demand.ClickRef{refs, refs[b.sim.Events:]} {
		var moved uint64
		c.step("demand.route_fold_ms", func() error {
			sa := b.newAggregator(1)
			emit, done := sa.FeedRefs()
			for lo := 0; lo < len(part); lo += 4096 {
				emit(part[lo:min(lo+4096, len(part))])
			}
			done()
			moved = sa.BytesMoved()
			return nil
		})
		if k == 0 {
			c.m["demand.bytes_per_click"] = float64(moved) / clicks
		}
	}

	var tsvOut chunkWriter
	c.step("logs.format_ms", func() error {
		w := logs.NewWriter(&tsvOut)
		for _, r := range refs {
			if err := w.Write(r.Click(b.cat)); err != nil {
				return err
			}
		}
		return w.Flush()
	})
	c.m["logs.bytes_per_click"] = float64(tsvOut.n) / clicks

	// The cycle's file writes alone: each file's bytes, in the chunks its
	// encoder handed the file, written through fsx as the cycle writes.
	for _, f := range []struct {
		path string
		out  *chunkWriter
	}{{b.segPath(), &segOut}, {b.tsvPath(), &tsvOut}} {
		if err := c.rewrite(f.path, f.out); err != nil {
			c.fail(err)
			return
		}
	}

	c.step("logs.parse_ms", func() error {
		f, err := os.Open(b.tsvPath())
		if err != nil {
			return err
		}
		defer f.Close()
		r := logs.NewReader(f)
		n := 0
		for ; ; n++ {
			if _, err := r.Next(); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return err
			}
		}
		if n != b.clicks() {
			return fmt.Errorf("parsed %d clicks, want %d", n, b.clicks())
		}
		return nil
	})

	wire := make([]logs.Click, len(refs))
	for i, r := range refs {
		wire[i] = r.Click(b.cat)
	}
	sa := b.newAggregator(1)
	c.step("demand.resolve_fold_ms", func() error {
		emit, done := sa.Feed()
		for _, w := range wire {
			emit(w)
		}
		done()
		return nil
	})
	if err := b.checkDemand("resolve fold", sa); err != nil {
		c.fail(err)
	}

	c.paths["clicklog"] = (before + cycle(1)) / 2
	for i, s := range stages {
		c.m["clicklog."+s+"_mclicks_per_s"] = clicks / 1e6 / ((stt[0][i] + stt[1][i]).Seconds() / 2)
	}
	for _, l := range []string{"demand.gen_ms", "seg.encode_ms", "fsx.write_ms", "seg.decode_ms", "demand.route_fold_ms",
		"logs.format_ms", "logs.parse_ms", "demand.resolve_fold_ms"} {
		c.covered["clicklog"] += c.m[l]
	}
}

// chunkWriter discards what it is written, keeping the size of each
// write.
type chunkWriter struct {
	sizes []int
	n     int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	w.n += len(p)
	return len(p), nil
}

// rewrite times writing the file at path again, to a new name, in the
// chunks out recorded for the same bytes; the file must hold exactly
// the bytes out counted.
func (c *census) rewrite(path string, out *chunkWriter) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) != out.n {
		return fmt.Errorf("%s holds %d bytes, its encoder wrote %d", path, len(data), out.n)
	}
	dst := path + ".rewrite"
	c.step("fsx.write_ms", func() error {
		af, err := fsx.CreateAtomic(dst, clickSync)
		if err != nil {
			return err
		}
		off := 0
		for _, n := range out.sizes {
			if _, err := af.Write(data[off : off+n]); err != nil {
				af.Abort()
				return err
			}
			off += n
		}
		return af.Commit()
	})
	return os.Remove(dst)
}

// serveCensus attributes a warm and a cold request: each is sent
// in-process through Handler().ServeHTTP and over loopback.
func (c *census) serveCensus() {
	srv, err := startServer(1)
	if err != nil {
		c.fail(err)
		return
	}
	client := newClient(1)
	defer func() {
		client.CloseIdleConnections()
		if err := srv.close(); err != nil {
			c.fail(err)
		}
	}()
	h := srv.srv.Handler()

	// Warm: serve-warm's hot set and schedule.
	wb := &warmBench{srv: srv, client: client, hot: hotSet(c.p.sz, c.p.seed, "warm")}
	if _, err := wb.warm(); err != nil {
		c.fail(err)
		return
	}
	// A replay handler answers each request of the schedule with the
	// response the program's handler gave it: sent over loopback and
	// in-process, it isolates HTTP's cost for these exact responses.
	rp := replay{}
	for i := 0; i < 2*len(wb.hot); i++ { // every target, plain and conditional
		k, etag := wb.request(i)
		rec := newSinkWriter(&bytes.Buffer{})
		h.ServeHTTP(rec, newRequest(srv.base+wb.hot[k].path, etag))
		rp[replayKey(wb.hot[k].path, etag)] = recorded{rec.status(), rec.hdr, rec.body.Bytes()}
	}
	rbase, stopReplay, err := startReplay(rp)
	if err != nil {
		c.fail(err)
		return
	}
	// The warm schedule four ways — the program's handler and the replay,
	// each in-process and over loopback — interleaved request by request
	// so that host drift hits every series alike.
	series := []struct {
		h    http.Handler // nil: over loopback
		base string
		ms   []float64
	}{{h, srv.base, nil}, {nil, srv.base, nil}, {rp, rbase, nil}, {nil, rbase, nil}}
	n304 := 0
	var buf bytes.Buffer
	for i := 0; i < c.p.sz.censusRequests; i++ {
		k, etag := wb.request(i)
		t := wb.hot[k]
		for j := range series {
			s := &series[j]
			status, d, err := send(s.h, client, s.base+t.path, etag, &buf)
			c.attempts++
			if err == nil && status != http.StatusOK && status != http.StatusNotModified {
				err = fmt.Errorf("%s: status %d", t.path, status)
			}
			if err == nil && (status == http.StatusNotModified) != (etag != "") {
				err = fmt.Errorf("%s: status %d for a request with If-None-Match %q", t.path, status, etag)
			}
			if err != nil {
				c.fail(errors.Join(err, stopReplay()))
				return
			}
			if status == http.StatusNotModified && j == 0 {
				n304++
			}
			s.ms = append(s.ms, ms(d))
		}
	}
	if err := stopReplay(); err != nil {
		c.fail(err)
	}
	handler, httpMS := mean(series[0].ms), mean(series[3].ms)-mean(series[2].ms)
	c.m["serve.handler_mean_us"] = 1e3 * handler
	c.m["http.overhead_mean_us"] = 1e3 * httpMS
	c.m["serve.status_304_ratio"] = float64(n304) / float64(len(series[0].ms))
	c.paths["serve-warm"] = mean(series[1].ms)
	c.covered["serve-warm"] = handler + httpMS

	c.coldCensus(httpMS)
}

// recorded is one response of the program's handler.
type recorded struct {
	status int
	hdr    http.Header
	body   []byte
}

// replay serves recorded responses, keyed by request URI and
// If-None-Match.
type replay map[string]recorded

func replayKey(uri, etag string) string { return uri + "\x00" + etag }

func (rp replay) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec, ok := rp[replayKey(r.URL.RequestURI(), r.Header.Get("If-None-Match"))]
	if !ok {
		http.NotFound(w, r)
		return
	}
	maps.Copy(w.Header(), rec.hdr)
	w.WriteHeader(rec.status)
	w.Write(rec.body)
}

// startReplay serves rp on loopback until stop, which waits for the
// serve loop to return.
func startReplay(rp replay) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: rp}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() error {
		err := hs.Close()
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}, nil
}

// send issues one GET in-process (h non-nil) or over loopback, reading
// the response body into buf either way.
func send(h http.Handler, client *http.Client, url, etag string, buf *bytes.Buffer) (int, time.Duration, error) {
	if h == nil {
		r, d, err := get(client, url, etag, buf)
		return r.status, d, err
	}
	req := newRequest(url, etag)
	buf.Reset()
	w := newSinkWriter(buf)
	t0 := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(t0)
	return w.status(), d, nil
}

// newRequest is an in-process GET, conditional when etag is non-empty.
func newRequest(url, etag string) *http.Request {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	return req
}

// sinkWriter is an http.ResponseWriter that keeps the status and
// headers and copies the body into a buffer, as a client reading it
// would.
type sinkWriter struct {
	hdr  http.Header
	code int
	body *bytes.Buffer
}

func newSinkWriter(body *bytes.Buffer) *sinkWriter {
	return &sinkWriter{hdr: http.Header{}, body: body}
}

func (w *sinkWriter) Header() http.Header { return w.hdr }

func (w *sinkWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *sinkWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *sinkWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// coldCensus attributes a cold request. For each configuration, in
// turn: the build and the marshal call the handler makes, timed on a
// fresh Study; the same request through one fresh server's handler; and
// over loopback to a second one. All three bodies must match.
func (c *census) coldCensus(httpMS float64) {
	in, err := startServer(1)
	if err != nil {
		c.fail(err)
		return
	}
	out, err := startServer(1)
	if err != nil {
		c.fail(errors.Join(err, in.close()))
		return
	}
	client := newClient(1)
	h := in.srv.Handler()
	k := c.p.sz.censusColdConfigs
	var build, marshal, handler, loop []float64
	var buf bytes.Buffer
	heap0 := liveHeap()
	for i := 0; i < k; i++ {
		e := coldEndpoints[i%len(coldEndpoints)]
		t := newTarget(derive(c.p.seed, "census-cold", i), e[0], e[1])
		// Each of the three timings starts from a collected heap, so that
		// none pays for the garbage of the one before.
		runtime.GC()
		bt, mt, body := c.buildAndMarshal(t)
		want, err := bodyDigest(body, t.experiment)
		if err != nil {
			c.fail(err)
			continue
		}
		runtime.GC()
		status, d, _ := send(h, nil, in.base+t.path, "", &buf)
		c.attempts++
		c.checkCold(t, status, buf.Bytes(), want)
		hd := ms(d)
		runtime.GC()
		r, d, err := get(client, out.base+t.path, "", &buf)
		c.attempts++
		if err != nil {
			c.fail(err)
			continue
		}
		c.checkCold(t, r.status, buf.Bytes(), want)
		build, marshal, handler, loop = append(build, bt), append(marshal, mt), append(handler, hd), append(loop, ms(d))
	}
	heap1 := liveHeap()
	evictions, err := scrapeGauge(client, out.base, "repro_serve_study_evictions")
	if err != nil {
		c.fail(err)
	}
	client.CloseIdleConnections()
	if err := errors.Join(in.close(), out.close()); err != nil {
		c.fail(err)
	}
	if len(loop) == 0 {
		return
	}
	c.m["core.build_ms"] = mean(build)
	c.m["report.marshal_ms"] = mean(marshal)
	c.m["serve.cold_overhead_ms"] = mean(handler) - mean(build) - mean(marshal)
	// Both servers keep what they built; the growth is per request served.
	c.m["serve.heap_per_req_kb"] = (heap1 - heap0) / float64(2*len(loop)) / 1e3
	c.m["serve.lru_evictions"] = evictions
	c.paths["serve-coldscan"] = mean(loop)
	// The cold path is attributed with the warm schedule's HTTP cost.
	c.covered["serve-coldscan"] = mean(handler) + httpMS
}

func (c *census) checkCold(t target, status int, body []byte, want [32]byte) {
	if status != http.StatusOK {
		c.fail(fmt.Errorf("%s: cold status %d, want 200", t.path, status))
		return
	}
	got, err := bodyDigest(body, t.experiment)
	if err != nil {
		c.fail(err)
		return
	}
	if got != want {
		c.fail(fmt.Errorf("%s: served body differs from the directly built one", t.path))
	}
}

// buildAndMarshal builds t's result on a fresh serial Study, then makes
// the marshal call the handler makes for it, returning both times and
// the body.
func (c *census) buildAndMarshal(t target) (buildMS, marshalMS float64, body []byte) {
	cfg := t.cfg
	cfg.Workers = 1
	st := core.NewStudy(cfg)
	var v any
	buildMS = c.time("core.build", func() error {
		var err error
		switch {
		case t.experiment:
			id := strings.TrimPrefix(t.endpoint, "experiment/")
			v, err = st.RunExperiments(context.Background(), []string{id}, 1)
		case strings.HasPrefix(t.endpoint, "demand/"):
			v, err = st.Demand(logs.Site(strings.TrimPrefix(t.endpoint, "demand/")))
		default:
			parts := strings.Split(t.endpoint, "/")
			v, err = st.Spread(entity.Domain(parts[1]), entity.Attr(parts[2]))
		}
		return err
	})
	marshalMS = c.time("report.marshal", func() error {
		var err error
		switch x := v.(type) {
		case *core.RunReport:
			var buf bytes.Buffer
			err = report.WriteJSON(&buf, st, x)
			body = buf.Bytes()
		case map[logs.Source][]demand.Estimate:
			site := logs.Site(strings.TrimPrefix(t.endpoint, "demand/"))
			body, err = json.MarshalIndent(report.NewDemandWire(site, x), "", "  ")
		default:
			body, err = json.MarshalIndent(x, "", "  ")
		}
		return err
	})
	return buildMS, marshalMS, body
}

// scrapeGauge reads one unlabelled series from GET /metrics.
func scrapeGauge(client *http.Client, base, name string) (float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no %s series", name)
}
