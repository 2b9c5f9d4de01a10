// Package plot emits experiment results as gnuplot-style TSV blocks and
// renders quick ASCII previews so every figure of the paper can be
// inspected straight from a terminal.
package plot

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// WriteTSV writes the series as gnuplot-style blocks: a comment header
// with the series name, x<TAB>y lines, and a blank line between series.
func WriteTSV(w io.Writer, series ...Series) error {
	bw := bufio.NewWriter(w)
	for i, s := range series {
		if i > 0 {
			fmt.Fprintln(bw)
		}
		fmt.Fprintf(bw, "# %s\n", s.Name)
		for j := range s.X {
			fmt.Fprintf(bw, "%g\t%g\n", s.X[j], s.Y[j])
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("plot: flush tsv: %w", err)
	}
	return nil
}

// Options controls ASCII rendering.
type Options struct {
	Width  int  // plot area columns (default 72)
	Height int  // plot area rows (default 18)
	LogX   bool // logarithmic x axis
	YMin   float64
	YMax   float64 // YMax <= YMin means autoscale
}

// seriesGlyphs mark successive curves in ASCII output.
var seriesGlyphs = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&', '=', '~'}

// ASCII renders the series into a text plot.
func ASCII(title string, series []Series, opt Options) string {
	if opt.Width <= 0 {
		opt.Width = 72
	}
	if opt.Height <= 0 {
		opt.Height = 18
	}
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			x := s.X[i]
			if opt.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			xMin = math.Min(xMin, x)
			xMax = math.Max(xMax, x)
			yMin = math.Min(yMin, s.Y[i])
			yMax = math.Max(yMax, s.Y[i])
		}
	}
	if opt.YMax > opt.YMin {
		yMin, yMax = opt.YMin, opt.YMax
	}
	// Degenerate inputs — no plottable points (empty series, or LogX
	// with every x <= 0) or a flat axis — fall back to unit ranges so
	// the frame renders without NaN/Inf geometry.
	if math.IsInf(xMin, 1) {
		xMin, xMax = 0, 1
	}
	if math.IsInf(yMin, 1) {
		yMin, yMax = 0, 1
	}
	if yMin == yMax {
		yMax = yMin + 1
	}
	if xMin == xMax {
		xMax = xMin + 1
	}

	grid := make([][]byte, opt.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", opt.Width))
	}
	for si, s := range series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for i := range s.X {
			x := s.X[i]
			if opt.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			col := int((x - xMin) / (xMax - xMin) * float64(opt.Width-1))
			row := opt.Height - 1 - int((s.Y[i]-yMin)/(yMax-yMin)*float64(opt.Height-1))
			if col >= 0 && col < opt.Width && row >= 0 && row < opt.Height {
				grid[row][col] = glyph
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for r, row := range grid {
		yVal := yMax - (yMax-yMin)*float64(r)/float64(opt.Height-1)
		fmt.Fprintf(&b, "%8.3f |%s\n", yVal, string(row))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", opt.Width))
	lo, hi := xMin, xMax
	if opt.LogX {
		lo, hi = math.Pow(10, xMin), math.Pow(10, xMax)
	}
	fmt.Fprintf(&b, "%8s  %-12g%s%12g\n", "", lo,
		strings.Repeat(" ", maxInt(1, opt.Width-24)), hi)
	for si, s := range series {
		fmt.Fprintf(&b, "  [%c] %s\n", seriesGlyphs[si%len(seriesGlyphs)], s.Name)
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
