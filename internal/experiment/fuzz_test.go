package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// FuzzDecodeRunReport feeds arbitrary bytes to DecodeRunReport, seeded
// from a telemetry-and-spans run report, the report goldens in testdata
// wrapped in an envelope, and the documents the decoder must refuse. No
// input may panic it, and what it accepts must re-encode into a document
// it accepts again as the same value: one that encodes to the same
// bytes. (Bytes, because the envelope's omitempty lists cannot tell an
// empty list from none: "notes":[] decodes to an empty list and comes
// back as no list.)
func FuzzDecodeRunReport(f *testing.F) {
	o := RunConfig(Config{Topology: "3x3 mesh", Algorithm: core.Parallel, Seed: 1, Telemetry: true, Spans: true})
	if o.Err != nil {
		f.Fatal(o.Err)
	}
	var b bytes.Buffer
	if err := NewRunReport(o, fixtureReport()).JSON(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())
	golden, err := os.ReadFile(filepath.Join("testdata", "fixture.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"schema":"` + RunReportSchema + `","reports":[` + string(golden) + `]}`))
	for _, doc := range []string{
		`{"schema":"` + RunReportSchema + `","error":"x"}`,
		`{"schema":"` + RunReportSchema + `","error":"x","spans":{"spans":null,"dropped":0}}`,
		`{"schema":"` + RunReportSchema + `","reports":[{"id":"r","title":"t","header":["a","b"],"rows":[["only"]]}]}`,
		`{"schema":"asi-discovery/run-report/v4","error":"x"}`,
		`{}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rr, err := DecodeRunReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := rr.JSON(&first); err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		back, err := DecodeRunReport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded report refused: %v\n%s", err, first.Bytes())
		}
		if err := back.JSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip drifted:\n%s\nre-encoded as\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzDecodeDaemonConfig feeds arbitrary bytes to DecodeDaemonConfig,
// seeded from the documented defaults, a config that sets every field and
// the documents the decoder must refuse. No input may panic it, and what
// it accepts must re-encode into a document it decodes to the same
// config. A topology name is ParseName's to fuzz (FuzzParseName): one
// with a number in it is only built when it is the default's or a
// catalogue entry's, so no iteration builds a fabric of a million nodes.
func FuzzDecodeDaemonConfig(f *testing.F) {
	small := map[string]bool{DefaultDaemonConfig().Topology: true}
	for _, name := range topo.Names() {
		small[name] = true
	}
	f.Add(DefaultDaemonConfig().EncodeJSON())
	f.Add(DaemonConfig{
		Topology: "4x4 mesh", Algorithm: "partial", Seed: 7,
		ChurnOps: 2, Rounds: 5, AuditEvery: 3, QueueDepth: 16, Listen: ":9000",
		ScrapeMS: 250, AssimWindowUS: 200, StaleAfterMS: 2,
	}.EncodeJSON())
	for _, doc := range []string{
		`{"topology":"3x3 mesh"}`,
		`{"topology":"3x3 mesh","churn_ops":0,"seed":0,"listen":""}`,
		`{"topology":"3x3 mesh","bogus":1}`,
		`{"topology":"3x3 mesh","algorithm":"distributed"}`,
		`{"topology":"3x3 mesh","assim_window_us":200}`,
		`{"topology":"no such fabric"}`,
		`{}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var name struct {
			Topology string `json:"topology"`
		}
		if json.Unmarshal(data, &name) == nil && strings.ContainsAny(name.Topology, "0123456789") && !small[name.Topology] {
			t.Skip("a parametric fabric name is FuzzParseName's")
		}
		dc, err := DecodeDaemonConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		back, err := DecodeDaemonConfig(bytes.NewReader(dc.EncodeJSON()))
		if err != nil {
			t.Fatalf("re-encoded config refused: %v\n%s", err, dc.EncodeJSON())
		}
		if back != dc {
			t.Fatalf("round trip drifted: %+v from %+v\n%s", back, dc, dc.EncodeJSON())
		}
	})
}
