package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeRunReport feeds arbitrary bytes to DecodeRunReport, seeded
// from a telemetry run report, the report golden in testdata wrapped in
// an envelope, and the documents the decoder must refuse. No
// input may panic it, and what it accepts must re-encode into a document
// it accepts again as the same value: one that encodes to the same
// bytes. (Bytes, because the envelope's omitempty lists cannot tell an
// empty list from none: "notes":[] decodes to an empty list and comes
// back as no list.)
func FuzzDecodeRunReport(f *testing.F) {
	o := RunConfig(Config{Topology: "3x3 mesh", Algorithm: core.Parallel, Seed: 1, Telemetry: true})
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
		`{"schema":"` + RunReportSchema + `","error":"x","events":1}`,
		`{"schema":"asi-discovery/run-report/v6","error":"x"}`,
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
