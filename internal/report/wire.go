package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/logs"
)

// SchemaV1 names the JSON wire format shared by `analyze -json` and the
// HTTP serving layer: one ResultWire per experiment, wrapped in an
// Envelope for batch output. Value payloads marshal the core result
// structs with their Go field names.
const SchemaV1 = "repro/v1"

// ResultWire is one experiment result on the wire. Value holds the
// experiment's core result struct.
type ResultWire struct {
	ID        string          `json:"id"`
	Title     string          `json:"title"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Value     json.RawMessage `json:"value"`
}

// Envelope is the batch JSON document: the configuration fingerprint
// that determined every result, plus the results in request order.
type Envelope struct {
	Schema     string       `json:"schema"`
	Seed       uint64       `json:"seed"`
	ConfigHash string       `json:"config_hash"`
	Results    []ResultWire `json:"results"`
}

// EncodeResult marshals one registry run result into its wire form.
func EncodeResult(r core.RunResult) (ResultWire, error) {
	if r.Err != nil {
		return ResultWire{}, fmt.Errorf("report: encode %s: %w", r.ID, r.Err)
	}
	raw, err := json.Marshal(r.Value)
	if err != nil {
		return ResultWire{}, fmt.Errorf("report: marshal %s: %w", r.ID, err)
	}
	return ResultWire{
		ID:        r.ID,
		Title:     r.Title,
		ElapsedMS: float64(r.Elapsed.Microseconds()) / 1000,
		Value:     raw,
	}, nil
}

// WriteJSON emits a registry run as the v1 JSON document. Batch
// (`analyze -json`) and serving paths share this encoding, so a cached
// HTTP body and a CLI run of the same (seed, config) are byte-identical
// per result.
func WriteJSON(w io.Writer, s *core.Study, rep *core.RunReport) error {
	env := Envelope{
		Schema:     SchemaV1,
		Seed:       s.Config().Seed,
		ConfigHash: s.Config().Hash(),
	}
	for _, r := range rep.Results {
		rw, err := EncodeResult(r)
		if err != nil {
			return err
		}
		env.Results = append(env.Results, rw)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("report: encode json: %w", err)
	}
	return nil
}

// DemandWire is the GET /v1/demand/{site} JSON document: per-entity
// demand estimates for each traffic source, indexed by entity ID.
type DemandWire struct {
	Site    string                       `json:"site"`
	Sources map[string][]demand.Estimate `json:"sources"`
}

// NewDemandWire builds the demand wire document for one site.
//
//repro:testonly-ok bench/trace.go times the demand wire marshal; ROADMAP item 6 retires that caller
func NewDemandWire(site logs.Site, ests map[logs.Source][]demand.Estimate) DemandWire {
	sources := make(map[string][]demand.Estimate, len(ests))
	for src, e := range ests {
		sources[string(src)] = e
	}
	return DemandWire{Site: string(site), Sources: sources}
}

// WriteDemandCSV emits one site's demand estimates as CSV, one row per
// entity ID, search and browse side by side.
func WriteDemandCSV(w io.Writer, ests map[logs.Source][]demand.Estimate) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"entity", "search_visits", "search_uniques", "browse_visits", "browse_uniques"}); err != nil {
		return fmt.Errorf("report: write csv header: %w", err)
	}
	search, browse := ests[logs.Search], ests[logs.Browse]
	n := len(search)
	if len(browse) > n {
		n = len(browse)
	}
	at := func(s []demand.Estimate, i int) demand.Estimate {
		if i < len(s) {
			return s[i]
		}
		return demand.Estimate{}
	}
	for i := 0; i < n; i++ {
		se, be := at(search, i), at(browse, i)
		row := []string{
			strconv.Itoa(i),
			strconv.Itoa(se.Visits), strconv.Itoa(se.UniqueCookies),
			strconv.Itoa(be.Visits), strconv.Itoa(be.UniqueCookies),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSpreadCSV emits a spread result's k-coverage curves as CSV rows
// of (k, t, coverage).
func WriteSpreadCSV(w io.Writer, r *core.SpreadResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"k", "t", "coverage"}); err != nil {
		return fmt.Errorf("report: write csv header: %w", err)
	}
	for _, c := range r.Curves {
		for i := range c.T {
			row := []string{
				strconv.Itoa(c.K),
				strconv.Itoa(c.T[i]),
				strconv.FormatFloat(c.Coverage[i], 'g', -1, 64),
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("report: write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
