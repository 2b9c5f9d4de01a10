// Package report renders Study experiment results into files (gnuplot
// TSV blocks, text tables), terminal ASCII previews and paper-claim
// verdicts for cmd/analyze, and encodes the JSON wire document that
// cmd/analyze -json and cmd/serve share (wire.go).
package report

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/entity"
	"repro/internal/plot"
)

// Valid reports whether id names a known experiment.
func Valid(id string) bool {
	_, ok := core.LookupExperiment(id)
	return ok
}

// render writes one experiment's already-computed value. The type
// switch mirrors the registry's Run return types.
func render(id string, v any, outDir string, w io.Writer) error {
	switch id {
	case "table1":
		return table1(v.([]core.Table1Row), outDir, w)
	case "fig1":
		return spreadFigure(v.([]*core.SpreadResult), outDir, w, "fig1", entity.AttrPhone)
	case "fig2":
		return spreadFigure(v.([]*core.SpreadResult), outDir, w, "fig2", entity.AttrHomepage)
	case "fig3":
		return fig3(v.(*core.SpreadResult), outDir, w)
	case "fig4":
		return fig4(v.(*core.Fig4Result), outDir, w)
	case "fig5":
		return fig5(v.(*core.Fig5Result), outDir, w)
	case "fig6":
		return fig6(v.([]*core.Fig6Result), outDir, w)
	case "fig7":
		return fig78(v.([]*core.Fig78Result), outDir, w, true)
	case "fig8":
		return fig78(v.([]*core.Fig78Result), outDir, w, false)
	case "table2":
		return table2(v.([]core.Table2Row), outDir, w)
	case "fig9":
		return fig9(v.([]*core.Fig9Result), outDir, w)
	default:
		return fmt.Errorf("report: no renderer for experiment %q", id)
	}
}

// RunMany computes the named experiments through the core registry —
// fanning artifact builds and analyses across workers goroutines (<= 0:
// GOMAXPROCS) — prints the pipeline timing summary, renders the results
// in request order, then prints the verdicts of their paper claims.
// With an outDir it writes each experiment's data files and the
// verdicts (shape_checks.txt) there. Each analysis runs exactly once;
// everything but the timing summary is byte-identical to a serial run
// for the same seed.
func RunMany(s *core.Study, ids []string, outDir string, w io.Writer, workers int) error {
	for _, id := range ids {
		if !Valid(id) {
			return fmt.Errorf("report: unknown experiment %q (known: %s)", id, strings.Join(core.ExperimentIDs(), ", "))
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("report: create %s: %w", outDir, err)
		}
	}
	rep, err := s.RunExperiments(context.Background(), ids, workers)
	if err != nil {
		return err
	}
	writeTimings(w, rep)
	for i, id := range ids {
		if err := render(id, rep.Results[i].Value, outDir, w); err != nil {
			return fmt.Errorf("report: experiment %s: %w", id, err)
		}
	}
	return claims(rep.Claims(), outDir, w)
}

// claims prints claim verdicts, one line each, and writes them to
// shape_checks.txt under outDir.
func claims(verdicts []core.ClaimResult, outDir string, w io.Writer) error {
	render := func(out io.Writer) error {
		for _, c := range verdicts {
			status := "OK  "
			if !c.OK {
				status = "DIFF"
			}
			fmt.Fprintf(out, "[%s] %-15s %-72s | measured: %s\n", status, c.ID, c.Paper, c.Measured)
		}
		return nil
	}
	fmt.Fprintln(w, "== Shape checks: paper claim vs measured ==")
	if err := render(w); err != nil {
		return err
	}
	return writeFile(outDir, "shape_checks.txt", render)
}

// writeTimings summarizes one registry run: per-artifact build cost and
// per-experiment analysis cost.
func writeTimings(w io.Writer, rep *core.RunReport) {
	fmt.Fprintf(w, "== Pipeline: %d artifacts, %d experiments, %v wall clock ==\n",
		len(rep.Artifacts), len(rep.Results), rep.Elapsed.Round(time.Millisecond))
	for _, a := range rep.Artifacts {
		fmt.Fprintf(w, "  build %-32s %8v\n", a.Name, a.Elapsed.Round(time.Millisecond))
	}
	for _, r := range rep.Results {
		fmt.Fprintf(w, "  run   %-32s %8v\n", r.ID, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintln(w)
}

// writeFile writes one data file under outDir (skipped when outDir is
// empty).
func writeFile(outDir, name string, write func(io.Writer) error) error {
	if outDir == "" {
		return nil
	}
	path := filepath.Join(outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("report: create %s: %w", path, err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		return fmt.Errorf("report: write %s: %w", path, err)
	}
	return f.Close()
}

func table1(rows []core.Table1Row, outDir string, w io.Writer) error {
	render := func(out io.Writer) error {
		fmt.Fprintf(out, "%-20s %s\n", "Domain", "Attributes")
		for _, r := range rows {
			attrs := make([]string, len(r.Attrs))
			for i, a := range r.Attrs {
				attrs[i] = string(a)
			}
			fmt.Fprintf(out, "%-20s %s\n", r.Domain.Title(), strings.Join(attrs, ", "))
		}
		return nil
	}
	fmt.Fprintln(w, "== Table 1: List of Domains ==")
	if err := render(w); err != nil {
		return err
	}
	return writeFile(outDir, "table1.txt", render)
}

// curveSeries converts one coverage curve into a plot series.
func curveSeries(name string, ts []int, coverage []float64) plot.Series {
	x := make([]float64, len(ts))
	for i, t := range ts {
		x[i] = float64(t)
	}
	return plot.Series{Name: name, X: x, Y: coverage}
}

// curvesToSeries converts k-coverage curves into plot series.
func curvesToSeries(curves []coverage.Curve) []plot.Series {
	out := make([]plot.Series, 0, len(curves))
	for _, c := range curves {
		out = append(out, curveSeries(fmt.Sprintf("k=%d", c.K), c.T, c.Coverage))
	}
	return out
}

func spreadFigure(results []*core.SpreadResult, outDir string, w io.Writer, figID string, attr entity.Attr) error {
	fmt.Fprintf(w, "== %s: Spread of %s Attribute ==\n", strings.ToUpper(figID[:1])+figID[1:], attr)
	for _, r := range results {
		series := curvesToSeries(r.Curves)
		name := fmt.Sprintf("%s_%s_%s.tsv", figID, r.Domain, attr)
		if err := writeFile(outDir, name, func(out io.Writer) error {
			return plot.WriteTSV(out, series...)
		}); err != nil {
			return err
		}
		// Preview only k=1 and k=5 to keep terminal output readable;
		// degenerate results with fewer curves preview what they have.
		preview := series
		if len(series) >= 5 {
			preview = []plot.Series{series[0], series[4]}
		}
		fmt.Fprintln(w, plot.ASCII(
			fmt.Sprintf("%s %s (%d sites)", r.Domain.Title(), attr, r.Sites),
			preview, plot.Options{LogX: true, Width: 64, Height: 12, YMin: 0, YMax: 1}))
	}
	return nil
}

func fig3(r *core.SpreadResult, outDir string, w io.Writer) error {
	series := curvesToSeries(r.Curves)
	if err := writeFile(outDir, "fig3_books_isbn.tsv", func(out io.Writer) error {
		return plot.WriteTSV(out, series...)
	}); err != nil {
		return err
	}
	preview := series
	if len(series) >= 5 {
		preview = []plot.Series{series[0], series[4]}
	}
	fmt.Fprintln(w, "== Fig 3: Spread of Book ISBN Numbers ==")
	fmt.Fprintln(w, plot.ASCII("Books ISBN", preview,
		plot.Options{LogX: true, Width: 64, Height: 12, YMin: 0, YMax: 1}))
	return nil
}

func fig4(r *core.Fig4Result, outDir string, w io.Writer) error {
	a, b := r.A, r.B
	series := curvesToSeries(a.Curves)
	if err := writeFile(outDir, "fig4a_restaurant_reviews.tsv", func(out io.Writer) error {
		return plot.WriteTSV(out, series...)
	}); err != nil {
		return err
	}
	agg := curveSeries("aggregate", b.T, b.Coverage)
	if err := writeFile(outDir, "fig4b_aggregate_reviews.tsv", func(out io.Writer) error {
		return plot.WriteTSV(out, agg)
	}); err != nil {
		return err
	}
	previewA := series
	previewB := []plot.Series{agg}
	if len(series) >= 2 {
		previewA = []plot.Series{series[0], series[1]}
		previewB = []plot.Series{series[0], agg}
	}
	fmt.Fprintln(w, "== Fig 4: Spread of Review Attribute for Restaurants ==")
	fmt.Fprintln(w, plot.ASCII("(a) review k-coverage", previewA,
		plot.Options{LogX: true, Width: 64, Height: 12, YMin: 0, YMax: 1}))
	fmt.Fprintln(w, plot.ASCII("(b) aggregate review pages vs (a) k=1",
		previewB,
		plot.Options{LogX: true, Width: 64, Height: 12, YMin: 0, YMax: 1}))
	return nil
}

func fig5(r *core.Fig5Result, outDir string, w io.Writer) error {
	size := curveSeries("order-by-size", r.BySize.T, r.BySize.Coverage)
	greedy := curveSeries("greedy-set-cover", r.Greedy.T, r.Greedy.Coverage)
	if err := writeFile(outDir, "fig5_greedy_cover.tsv", func(out io.Writer) error {
		return plot.WriteTSV(out, size, greedy)
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "== Fig 5: Ordering Sites by Diversity (restaurant homepages) ==")
	fmt.Fprintln(w, plot.ASCII("greedy vs size order", []plot.Series{size, greedy},
		plot.Options{LogX: true, Width: 64, Height: 12, YMin: 0, YMax: 1}))
	return nil
}

func fig6(rs []*core.Fig6Result, outDir string, w io.Writer) error {
	fmt.Fprintln(w, "== Fig 6: The long tail of demand ==")
	bySrc := map[string][]plot.Series{}
	for _, r := range rs {
		cx := make([]float64, len(r.CDF))
		cy := make([]float64, len(r.CDF))
		for i, p := range r.CDF {
			cx[i], cy[i] = p.InventoryFrac, p.DemandFrac
		}
		cdfSeries := plot.Series{Name: string(r.Site), X: cx, Y: cy}
		px := make([]float64, len(r.PDF))
		py := make([]float64, len(r.PDF))
		for i, p := range r.PDF {
			px[i], py[i] = float64(p.Rank), p.DemandFrac
		}
		pdfSeries := plot.Series{Name: string(r.Site), X: px, Y: py}
		name := fmt.Sprintf("fig6_%s_%s.tsv", r.Site, r.Source)
		if err := writeFile(outDir, name, func(out io.Writer) error {
			return plot.WriteTSV(out, cdfSeries, pdfSeries)
		}); err != nil {
			return err
		}
		bySrc[string(r.Source)] = append(bySrc[string(r.Source)], cdfSeries)
		fmt.Fprintf(w, "%s/%s: top-20%% of inventory carries %.1f%% of demand (gini %.2f, zipf s=%.2f)\n",
			r.Site, r.Source, 100*r.Top20, r.GiniSkew, r.ZipfS)
	}
	for _, src := range []string{"search", "browse"} {
		fmt.Fprintln(w, plot.ASCII("cumulative demand, "+src+" data", bySrc[src],
			plot.Options{Width: 64, Height: 12, YMin: 0, YMax: 1}))
	}
	return nil
}

func fig78(rs []*core.Fig78Result, outDir string, w io.Writer, normalized bool) error {
	figID := "fig8"
	if normalized {
		figID = "fig7"
	}
	if normalized {
		fmt.Fprintln(w, "== Fig 7: Normalized demand vs number of existing reviews ==")
	} else {
		fmt.Fprintln(w, "== Fig 8: Average relative value-add VA(n)/VA(0) ==")
	}
	bySite := map[string][]plot.Series{}
	for _, r := range rs {
		x := make([]float64, len(r.Bins))
		y := make([]float64, len(r.Bins))
		for i, b := range r.Bins {
			x[i] = b.CenterN
			if x[i] == 0 {
				x[i] = 0.5 // log-axis placement for the zero-review bin
			}
			if normalized {
				y[i] = b.MeanDemand
			} else {
				y[i] = b.RelVA
			}
		}
		series := plot.Series{Name: string(r.Source), X: x, Y: y}
		name := fmt.Sprintf("%s_%s_%s.tsv", figID, r.Site, r.Source)
		if err := writeFile(outDir, name, func(out io.Writer) error {
			return plot.WriteTSV(out, series)
		}); err != nil {
			return err
		}
		bySite[string(r.Site)] = append(bySite[string(r.Site)], series)
	}
	sites := make([]string, 0, len(bySite))
	for site := range bySite {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		fmt.Fprintln(w, plot.ASCII(site, bySite[site],
			plot.Options{LogX: true, Width: 64, Height: 12}))
	}
	return nil
}

func table2(rows []core.Table2Row, outDir string, w io.Writer) error {
	render := func(out io.Writer) error {
		fmt.Fprintf(out, "%-12s %-10s %10s %9s %11s %14s\n",
			"Domain", "Attr", "Avg#sites", "diameter", "#conn.comp.", "%ent.largest")
		for _, r := range rows {
			fmt.Fprintf(out, "%-12s %-10s %10.1f %9d %11d %14.2f\n",
				r.Domain, r.Attr, r.AvgSitesPerEntity, r.Diameter, r.Components, 100*r.FracLargest)
		}
		return nil
	}
	fmt.Fprintln(w, "== Table 2: Entity-Site Graphs and Metrics ==")
	if err := render(w); err != nil {
		return err
	}
	return writeFile(outDir, "table2.txt", render)
}

func fig9(rs []*core.Fig9Result, outDir string, w io.Writer) error {
	fmt.Fprintln(w, "== Fig 9: Robustness after removing top-k sites ==")
	byAttr := map[entity.Attr][]plot.Series{}
	for _, r := range rs {
		x := make([]float64, len(r.Curve))
		for i := range r.Curve {
			x[i] = float64(i)
		}
		series := plot.Series{Name: string(r.Domain), X: x, Y: r.Curve}
		name := fmt.Sprintf("fig9_%s_%s.tsv", r.Domain, r.Attr)
		if err := writeFile(outDir, name, func(out io.Writer) error {
			return plot.WriteTSV(out, series)
		}); err != nil {
			return err
		}
		byAttr[r.Attr] = append(byAttr[r.Attr], series)
	}
	for _, attr := range []entity.Attr{entity.AttrPhone, entity.AttrHomepage, entity.AttrISBN} {
		if len(byAttr[attr]) == 0 {
			continue
		}
		fmt.Fprintln(w, plot.ASCII("fraction in largest component, "+string(attr),
			byAttr[attr], plot.Options{Width: 64, Height: 12}))
	}
	return nil
}
