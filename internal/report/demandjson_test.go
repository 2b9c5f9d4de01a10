package report

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/demand"
	"repro/internal/logs"
)

// checkDemandJSON asserts DemandJSON is the bytes of the reflection
// encoding it replaced, in a slice with no spare capacity.
func checkDemandJSON(t testing.TB, site logs.Site, ests map[logs.Source][]demand.Estimate) {
	t.Helper()
	want, err := json.MarshalIndent(NewDemandWire(site, ests), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := DemandJSON(site, ests)
	if !bytes.Equal(got, want) {
		t.Fatalf("DemandJSON(%q, %v) differs from MarshalIndent:\n got %q\nwant %q", site, ests, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("DemandJSON(%q): cap %d, len %d; the stored body would keep %d spare bytes",
			site, cap(got), len(got), cap(got)-len(got))
	}
}

func TestDemandJSONMatchesMarshalIndent(t *testing.T) {
	ests, err := testStudy().Demand(logs.Yelp)
	if err != nil {
		t.Fatal(err)
	}
	checkDemandJSON(t, logs.Yelp, ests)

	one := []demand.Estimate{{Visits: 3, UniqueCookies: 2}}
	edge := []demand.Estimate{{}, {Visits: -1, UniqueCookies: math.MinInt}, {Visits: math.MaxInt, UniqueCookies: 10}}
	cases := []struct {
		name string
		site logs.Site
		ests map[logs.Source][]demand.Estimate
	}{
		{"nil map", logs.Amazon, nil},
		{"empty map", logs.Amazon, map[logs.Source][]demand.Estimate{}},
		{"nil slice", logs.Yelp, map[logs.Source][]demand.Estimate{logs.Search: nil}},
		{"empty slice", logs.Yelp, map[logs.Source][]demand.Estimate{logs.Browse: {}}},
		{"one source", logs.Yelp, map[logs.Source][]demand.Estimate{logs.Search: one}},
		{"mixed", logs.Yelp, map[logs.Source][]demand.Estimate{logs.Search: edge, logs.Browse: nil, "": {}}},
		{"quoting", "a\"b\\c<d>&e\x00\x1f\b\f\n\r\t\x7f", map[logs.Source][]demand.Estimate{"\xff\xfe \u00e9 \u2028\u2029 \xe2\x80": one}},
		{"long site", logs.Site(bytes.Repeat([]byte("<&>"), 40)), map[logs.Source][]demand.Estimate{"z": one, "a": one}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkDemandJSON(t, c.site, c.ests) })
	}
}

// FuzzDemandJSON holds DemandJSON to json.MarshalIndent(NewDemandWire)
// over arbitrary site and source names, per-source lists that are
// absent, nil, empty or 1..64 long, and any int values.
//
// A length byte l maps to: l < 0x80 absent (l == 0x7f aside), 0x7f nil,
// 0x80 empty, 0x81.. that many minus 0x80 entries capped at 64. Values
// are read eight bytes at a time from vals, then count up from 0.
func FuzzDemandJSON(f *testing.F) {
	le := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add("yelp", "", byte(0x81), byte(0x82), byte(0), le(0, -1, math.MaxInt64, math.MinInt64))
	f.Add("amazon", "extra", byte(0x7f), byte(0x80), byte(0x83), le(7, 12345, -42))
	f.Add("<&>\u2028", "\xff\"\\\n", byte(0x90), byte(0x7f), byte(0x80), []byte{})
	f.Fuzz(func(t *testing.T, site, extra string, searchLen, browseLen, extraLen byte, vals []byte) {
		next := 0
		value := func() int {
			if len(vals) >= 8 {
				v := int(int64(binary.LittleEndian.Uint64(vals)))
				vals = vals[8:]
				return v
			}
			next++
			return next - 1
		}
		ests := map[logs.Source][]demand.Estimate{}
		put := func(src logs.Source, l byte) {
			switch {
			case l == 0x7f:
				ests[src] = nil
			case l < 0x80:
				return
			default:
				e := make([]demand.Estimate, min(int(l-0x80), 64))
				for i := range e {
					e[i] = demand.Estimate{Visits: value(), UniqueCookies: value()}
				}
				ests[src] = e
			}
		}
		put(logs.Search, searchLen)
		put(logs.Browse, browseLen)
		put(logs.Source(extra), extraLen)
		checkDemandJSON(t, logs.Site(site), ests)
	})
}
