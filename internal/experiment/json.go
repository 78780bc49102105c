package experiment

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// RunReportSchema identifies the JSON envelope version emitted by the
// CLIs. Consumers should reject any other schema string, as
// DecodeRunReport does.
const RunReportSchema = "asi-discovery/run-report/v5"

// RunReport is the machine-readable envelope for simulation output: run
// identification, the measured discovery, any rendered report tables,
// and — when the run collected it — the full telemetry snapshot. It is
// what `asidisc -json` and `asibench -json` emit, and it round-trips
// through encoding/json losslessly (modulo unexported state, of which
// the fields carry none).
type RunReport struct {
	Schema string `json:"schema"`
	// Topology, Algorithm, Seed and Change identify the run.
	Topology  string `json:"topology,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Change    string `json:"change,omitempty"`
	// PhysicalNodes and ActiveNodes are the paper's two x-axes.
	PhysicalNodes int `json:"physical_nodes,omitempty"`
	ActiveNodes   int `json:"active_nodes,omitempty"`
	// Result is the measured discovery (absent for report-only output).
	Result *core.Result `json:"result,omitempty"`
	// Error reports a failed run.
	Error string `json:"error,omitempty"`
	// Reports carries rendered experiment tables.
	Reports []Report `json:"reports,omitempty"`
	// Telemetry is the run's metric snapshot when collection was enabled.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Spans is the run's causal span log when span tracing was enabled.
	Spans *span.Log `json:"spans,omitempty"`
	// Events counts processed simulation events; EventsPerSec is the
	// simulator's wall-clock throughput where the caller measured one.
	Events       uint64  `json:"events,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// NewRunReport packages one run outcome for machine consumption.
func NewRunReport(o Outcome, reports ...Report) RunReport {
	rr := RunReport{
		Schema:        RunReportSchema,
		Topology:      o.Config.Topology,
		Algorithm:     o.Config.Algorithm.String(),
		Seed:          o.Config.Seed,
		Change:        o.Config.Change.String(),
		PhysicalNodes: o.PhysicalNodes,
		ActiveNodes:   o.ActiveNodes,
		Reports:       reports,
		Telemetry:     o.Telemetry,
		Spans:         o.Spans,
		Events:        o.Events,
	}
	if o.Err != nil {
		rr.Error = o.Err.Error()
	} else {
		res := o.Result
		rr.Result = &res
	}
	return rr
}

// NewReportsJSON packages report tables alone (asibench experiment mode).
func NewReportsJSON(reports []Report) RunReport {
	return RunReport{Schema: RunReportSchema, Reports: reports}
}

// JSON writes the envelope as indented JSON.
func (rr RunReport) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rr)
}

// DecodeRunReport parses and sanity-checks one envelope, the validation
// used by the `reportjson` smoke tool and by tests.
func DecodeRunReport(r io.Reader) (RunReport, error) {
	var rr RunReport
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rr); err != nil {
		return RunReport{}, fmt.Errorf("experiment: decoding run report: %w", err)
	}
	if rr.Schema != RunReportSchema {
		return RunReport{}, fmt.Errorf("experiment: run report schema %q, want %q", rr.Schema, RunReportSchema)
	}
	if rr.Result == nil && rr.Error == "" && len(rr.Reports) == 0 {
		return RunReport{}, fmt.Errorf("experiment: run report carries no result, error or reports")
	}
	if rr.Spans != nil {
		if err := span.Validate(*rr.Spans); err != nil {
			return RunReport{}, fmt.Errorf("experiment: run report spans: %w", err)
		}
	}
	for _, rep := range rr.Reports {
		for i, row := range rep.Rows {
			if len(row) != len(rep.Header) {
				return RunReport{}, fmt.Errorf("experiment: report %q row %d has %d cells, header has %d",
					rep.ID, i, len(row), len(rep.Header))
			}
		}
	}
	return rr, nil
}

// JSON writes one report table as indented JSON.
func (r Report) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
