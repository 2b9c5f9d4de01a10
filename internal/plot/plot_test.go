package plot

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteTSV(t *testing.T) {
	var buf bytes.Buffer
	a := Series{Name: "alpha", X: []float64{1, 10}, Y: []float64{0.5, 0.9}}
	b := Series{Name: "beta", X: []float64{2}, Y: []float64{0.1}}
	if err := WriteTSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := "# alpha\n1\t0.5\n10\t0.9\n\n# beta\n2\t0.1\n"
	if out != want {
		t.Errorf("TSV = %q, want %q", out, want)
	}
}

func TestASCIIBasics(t *testing.T) {
	s := Series{Name: "curve", X: []float64{1, 10, 100, 1000}, Y: []float64{0.1, 0.5, 0.9, 1.0}}
	out := ASCII("My Figure", []Series{s}, Options{LogX: true, Width: 40, Height: 10})
	if !strings.Contains(out, "My Figure") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "[*] curve") {
		t.Error("missing legend")
	}
	if !strings.Contains(out, "*") {
		t.Error("no points plotted")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Errorf("plot too short: %d lines", len(lines))
	}
}

func TestASCIIMultiSeriesGlyphs(t *testing.T) {
	a := Series{Name: "a", X: []float64{1, 2}, Y: []float64{0, 1}}
	b := Series{Name: "b", X: []float64{1, 2}, Y: []float64{1, 0}}
	out := ASCII("t", []Series{a, b}, Options{Width: 20, Height: 8})
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("multi-series glyphs missing")
	}
}

func TestASCIIDegenerate(t *testing.T) {
	// Empty series, constant series, zero/negative x with LogX — none
	// may panic.
	cases := [][]Series{
		nil,
		{{Name: "empty"}},
		{{Name: "const", X: []float64{1, 2}, Y: []float64{5, 5}}},
		{{Name: "neg", X: []float64{-1, 0, 1}, Y: []float64{1, 2, 3}}},
	}
	for _, series := range cases {
		for _, logx := range []bool{false, true} {
			out := ASCII("d", series, Options{LogX: logx, Width: 10, Height: 5})
			if out == "" {
				t.Error("empty render")
			}
		}
	}
}

func TestASCIIFixedYRange(t *testing.T) {
	s := Series{Name: "s", X: []float64{1, 2}, Y: []float64{0.2, 0.4}}
	out := ASCII("t", []Series{s}, Options{Width: 20, Height: 5, YMin: 0, YMax: 1})
	if !strings.Contains(out, "1.000") || !strings.Contains(out, "0.000") {
		t.Errorf("fixed range labels missing:\n%s", out)
	}
}
