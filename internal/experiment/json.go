package experiment

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// RunReportSchema identifies the JSON envelope version emitted by the
// CLIs. Consumers should reject any other schema string, as
// DecodeRunReport does.
const RunReportSchema = "asi-discovery/run-report/v8"

// RunReport is the machine-readable envelope for simulation output: run
// identification, the measured discovery, any rendered report tables,
// and — when the run collected it — the full telemetry snapshot. It is
// what `asidisc -json` and `asibench -json` emit, and it round-trips
// through encoding/json losslessly (modulo unexported state, of which
// the fields carry none). Every field is simulated, never host time, so
// one command run twice prints the same bytes.
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
	// Telemetry is the run's metric snapshot when collection was enabled;
	// its sim.events counter is the run's event count. A span log is
	// saved as a Chrome trace (`asidisc -spans-out`), never here.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
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
// the CLI tests run on every -json report.
func DecodeRunReport(r io.Reader) (RunReport, error) {
	var rr RunReport
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	// An unknown field does not stop the decoder reading the schema, so a
	// retired version is refused by name whatever fields it carries.
	err := dec.Decode(&rr)
	if rr.Schema != RunReportSchema && (rr.Schema != "" || err == nil) {
		return RunReport{}, fmt.Errorf("experiment: run report schema %q, want %q", rr.Schema, RunReportSchema)
	}
	if err != nil {
		return RunReport{}, fmt.Errorf("experiment: decoding run report: %w", err)
	}
	if rr.Result == nil && rr.Error == "" && len(rr.Reports) == 0 {
		return RunReport{}, fmt.Errorf("experiment: run report carries no result, error or reports")
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
