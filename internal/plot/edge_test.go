package plot

import (
	"bytes"
	"strings"
	"testing"
)

// TestASCIISinglePoint renders a one-point series: both axes are
// degenerate (xMin==xMax, yMin==yMax) and must widen instead of
// dividing by zero.
func TestASCIISinglePoint(t *testing.T) {
	s := Series{Name: "dot", X: []float64{3}, Y: []float64{0.7}}
	for _, logx := range []bool{false, true} {
		out := ASCII("single", []Series{s}, Options{LogX: logx, Width: 16, Height: 6})
		if !strings.Contains(out, "*") {
			t.Errorf("logx=%v: single point not plotted:\n%s", logx, out)
		}
		if !strings.Contains(out, "[*] dot") {
			t.Errorf("logx=%v: legend missing", logx)
		}
	}
}

// TestASCIIAllNonPositiveLogX: with a log x-axis every point at x<=0 is
// unplottable; the render falls back to an empty frame rather than
// producing NaN geometry.
func TestASCIIAllNonPositiveLogX(t *testing.T) {
	s := Series{Name: "neg", X: []float64{-2, -1, 0}, Y: []float64{1, 2, 3}}
	out := ASCII("nonpositive", []Series{s}, Options{LogX: true, Width: 12, Height: 4})
	if out == "" {
		t.Fatal("empty render")
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
			t.Errorf("degenerate geometry leaked into output: %q", line)
		}
	}
}

// TestASCIIPointsOutsideFixedRange: points beyond an explicit Y range
// are clipped, not wrapped onto other rows.
func TestASCIIPointsOutsideFixedRange(t *testing.T) {
	s := Series{Name: "wild", X: []float64{1, 2, 3}, Y: []float64{-5, 0.5, 5}}
	out := ASCII("clip", []Series{s}, Options{Width: 20, Height: 5, YMin: 0, YMax: 1})
	if got := strings.Count(out, "*"); got != 2 { // in-range point + legend glyph
		t.Errorf("%d glyphs, want 2 (one plotted point, one legend):\n%s", got, out)
	}
}

func TestASCIIDefaultDimensions(t *testing.T) {
	s := Series{Name: "s", X: []float64{1, 2}, Y: []float64{1, 2}}
	out := ASCII("defaults", []Series{s}, Options{})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + 18 rows + axis + labels + legend
	if len(lines) != 22 {
		t.Errorf("%d lines with default dimensions, want 22", len(lines))
	}
	for _, l := range lines[1:19] {
		if !strings.Contains(l, "|") {
			t.Errorf("plot row %q missing axis", l)
		}
	}
}

func TestWriteTSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("no series should write nothing, got %q", buf.String())
	}
	buf.Reset()
	// A series with zero points still writes its block header, keeping
	// block indices aligned for gnuplot consumers.
	if err := WriteTSV(&buf, Series{Name: "hollow"}, Series{Name: "solid", X: []float64{1}, Y: []float64{2}}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "# hollow\n\n# solid\n1\t2\n"; got != want {
		t.Errorf("TSV = %q, want %q", got, want)
	}
}
