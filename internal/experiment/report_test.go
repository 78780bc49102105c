package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixtureReport exercises alignment, quoting and notes in one table.
func fixtureReport() Report {
	return Report{
		ID:     "fixture",
		Title:  "Golden fixture",
		Header: []string{"Topology", "Value", "Remark"},
		Rows: [][]string{
			{"3x3 mesh", "0.000123", "plain"},
			{"8x8 torus", "1.5", `quote " and, comma`},
			{"long-name-topology", "2", ""},
		},
		Notes: []string{"first note", "second, with comma"},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestReportRenderGolden(t *testing.T) {
	var b bytes.Buffer
	if err := fixtureReport().Render(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture.txt", b.Bytes())
}

// TestReportJSONGolden: a table's one machine form is the run-report
// envelope, and the fixture's entry in it, reports[0], is
// testdata/fixture.json.
func TestReportJSONGolden(t *testing.T) {
	var b bytes.Buffer
	if err := NewReportsJSON([]Report{fixtureReport()}).JSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Reports []json.RawMessage }
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil || len(doc.Reports) != 1 {
		t.Fatalf("envelope (%v):\n%s", err, b.Bytes())
	}
	var report bytes.Buffer
	if err := json.Indent(&report, doc.Reports[0], "", "  "); err != nil {
		t.Fatal(err)
	}
	report.WriteByte('\n')
	checkGolden(t, "fixture.json", report.Bytes())
}

// A run report must survive an encode/decode round trip intact.
func TestRunReportJSONRoundTrip(t *testing.T) {
	o := RunConfig(Config{Topology: "3x3 mesh", Algorithm: core.Parallel, Seed: 1, Telemetry: true})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	rr := NewRunReport(o, fixtureReport())
	var b bytes.Buffer
	if err := rr.JSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRunReport(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr, back) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", back, rr)
	}
	if back.Telemetry == nil {
		t.Fatal("telemetry snapshot lost in round trip")
	}
	if h, ok := back.Telemetry.Histogram(core.MetricFMServicePrefix + "completion"); !ok || h.Count == 0 {
		t.Error("per-phase FM service histogram lost in round trip")
	}
	if _, ok := back.Telemetry.Counter(core.MetricFMRetries); !ok {
		t.Error("retry counter lost in round trip")
	}
}

// Retired envelope versions get no partial back-compat decoding: a v1 to
// v7 document is refused by the unknown-schema error whatever it carries.
func TestDecodeRunReportBackCompat(t *testing.T) {
	for _, version := range []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7"} {
		schema := "asi-discovery/run-report/" + version
		for _, body := range []string{
			`"error":"x"`,
			`"error":"x","spans":{"spans":null,"dropped":0}`,
		} {
			doc := `{"schema":"` + schema + `",` + body + `}`
			_, err := DecodeRunReport(bytes.NewReader([]byte(doc)))
			if err == nil || !strings.Contains(err.Error(), "schema") {
				t.Errorf("%s document {%s}: error %v, want the unknown-schema rejection", version, body, err)
			}
		}
	}
}

// DecodeRunReport rejects the failure shapes the smoke tool must catch.
func TestDecodeRunReportRejects(t *testing.T) {
	cases := map[string]string{
		"empty object":  `{}`,
		"wrong schema":  `{"schema":"other/v9","error":"x"}`,
		"unknown field": `{"schema":"` + RunReportSchema + `","error":"x","bogus":1}`,
		"ragged row": `{"schema":"` + RunReportSchema + `","reports":[` +
			`{"id":"r","title":"t","header":["a","b"],"rows":[["only"]]}]}`,
		// The sharded path's section left the schema with the path.
		"retired regions section": `{"schema":"` + RunReportSchema + `","error":"x",` +
			`"regions":{"regions":2}}`,
		// Host time left the envelope with v6.
		"retired events_per_sec": `{"schema":"` + RunReportSchema + `","error":"x","events_per_sec":1}`,
		"retired wall_seconds": `{"schema":"` + RunReportSchema + `","reports":[` +
			`{"id":"r","title":"t","header":["a"],"rows":[["1"]],"wall_seconds":1}]}`,
		// The span log and the event count left with v7: a span log is
		// saved as a Chrome trace, and telemetry's sim.events counts events.
		"retired spans section": `{"schema":"` + RunReportSchema + `","error":"x","spans":{"spans":null,"dropped":0}}`,
		"retired events count":  `{"schema":"` + RunReportSchema + `","error":"x","events":1}`,
		// The timeline left with v8: it is read from the span log.
		"retired timeline": `{"schema":"` + RunReportSchema + `","result":{"Timeline":[1]}}`,
	}
	for name, doc := range cases {
		if _, err := DecodeRunReport(bytes.NewReader([]byte(doc))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
