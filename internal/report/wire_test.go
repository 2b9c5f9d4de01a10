package report

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/logs"
)

// TestWireRoundTrip encodes every experiment's result to the shared
// JSON wire format and decodes it back, asserting the typed value
// survives unchanged — the contract that lets `analyze -json` output
// and HTTP responses be consumed interchangeably.
func TestWireRoundTrip(t *testing.T) {
	study := testStudy()
	rep, err := study.RunAll(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		rw, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("encode %s: %v", res.ID, err)
		}
		if rw.ID != res.ID || rw.Title != res.Title {
			t.Errorf("%s: wire metadata %q/%q", res.ID, rw.ID, rw.Title)
		}
		back, err := decodeResultValue(rw.ID, rw.Value)
		if err != nil {
			t.Fatalf("decode %s: %v", res.ID, err)
		}
		if !reflect.DeepEqual(back, res.Value) {
			t.Errorf("%s: value did not round-trip:\n got %#v\nwant %#v", res.ID, back, res.Value)
		}
	}
}

func TestWriteJSONEnvelope(t *testing.T) {
	study := testStudy()
	rep, err := study.RunExperiments(context.Background(), []string{"table1", "fig3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, study, rep); err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Schema != SchemaV1 {
		t.Errorf("schema %q", env.Schema)
	}
	if env.Seed != study.Config().Seed || env.ConfigHash != study.Config().Hash() {
		t.Errorf("envelope header %+v", env)
	}
	if len(env.Results) != 2 || env.Results[0].ID != "table1" || env.Results[1].ID != "fig3" {
		t.Fatalf("results %+v", env.Results)
	}
	for _, rw := range env.Results {
		if _, err := decodeResultValue(rw.ID, rw.Value); err != nil {
			t.Errorf("decode %s from envelope: %v", rw.ID, err)
		}
	}
}

func TestWireErrors(t *testing.T) {
	if _, err := decodeResultValue("fig99", json.RawMessage(`{}`)); err == nil {
		t.Error("unknown id should fail")
	}
	if _, err := decodeResultValue("fig3", json.RawMessage(`[not json`)); err == nil {
		t.Error("malformed value should fail")
	}
	if _, err := EncodeResult(core.RunResult{ID: "fig3", Err: errors.New("boom")}); err == nil {
		t.Error("failed result should not encode")
	}
	study := testStudy()
	rep, err := study.RunExperiments(context.Background(), []string{"table1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep.Results[0].Err = errors.New("late failure")
	if err := WriteJSON(&bytes.Buffer{}, study, rep); err == nil {
		t.Error("WriteJSON should surface result errors")
	}
}

func TestWriteDemandCSV(t *testing.T) {
	ests := map[logs.Source][]demand.Estimate{
		logs.Search: {{Visits: 3, UniqueCookies: 2}, {Visits: 1, UniqueCookies: 1}},
		logs.Browse: {{Visits: 5, UniqueCookies: 4}}, // shorter: pads with zeros
	}
	var buf bytes.Buffer
	if err := WriteDemandCSV(&buf, ests); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"entity", "search_visits", "search_uniques", "browse_visits", "browse_uniques"},
		{"0", "3", "2", "5", "4"},
		{"1", "1", "1", "0", "0"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows %v, want %v", rows, want)
	}
}

func TestWriteSpreadCSV(t *testing.T) {
	study := testStudy()
	res, err := study.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSpreadCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, c := range res.Curves {
		points += len(c.T)
	}
	if len(rows) != points+1 {
		t.Errorf("%d rows, want %d points + header", len(rows), points)
	}
}

func TestNewDemandWire(t *testing.T) {
	w := NewDemandWire(logs.Yelp, map[logs.Source][]demand.Estimate{
		logs.Search: {{Visits: 1, UniqueCookies: 1}},
	})
	if w.Site != "yelp" || len(w.Sources["search"]) != 1 {
		t.Errorf("wire %+v", w)
	}
}

// decodeAs unmarshals raw into a value of the experiment's concrete
// result type, returned as any.
func decodeAs[T any](id string, raw json.RawMessage) (any, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("report: decode %s: %w", id, err)
	}
	return v, nil
}

// decodeResultValue unmarshals a ResultWire's Value back into the typed
// core result for its experiment ID — the inverse of EncodeResult, and
// the round-trip oracle for the wire format. The type switch mirrors the
// registry's Run return types (see render).
func decodeResultValue(id string, raw json.RawMessage) (any, error) {
	switch id {
	case "table1":
		return decodeAs[[]core.Table1Row](id, raw)
	case "fig1", "fig2":
		return decodeAs[[]*core.SpreadResult](id, raw)
	case "fig3":
		return decodeAs[*core.SpreadResult](id, raw)
	case "fig4":
		return decodeAs[*core.Fig4Result](id, raw)
	case "fig5":
		return decodeAs[*core.Fig5Result](id, raw)
	case "fig6":
		return decodeAs[[]*core.Fig6Result](id, raw)
	case "fig7", "fig8":
		return decodeAs[[]*core.Fig78Result](id, raw)
	case "table2":
		return decodeAs[[]core.Table2Row](id, raw)
	case "fig9":
		return decodeAs[[]*core.Fig9Result](id, raw)
	default:
		return nil, fmt.Errorf("report: no wire type for experiment %q", id)
	}
}
