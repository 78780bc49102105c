package experiment

import (
	"strings"
	"testing"
)

// TestExtScaleTrimmed runs the ext-scale machinery over a small row set
// (the full experiment's 5k/10k-switch rows take minutes and are marked
// Heavy): one audited and one initial-only row, both of which must
// converge.
func TestExtScaleTrimmed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-switch discovery runs")
	}
	rep := extScale([]scaleRow{
		{"dragonfly 8x32", true},
		{"autofat 32x512", false},
	})
	if len(rep.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rep.Rows))
	}
	wantVerdicts := []string{"converged (audit)", "converged (initial)"}
	for i, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("row %d width %d vs header %d", i, len(row), len(rep.Header))
		}
		if verdict := row[len(row)-1]; verdict != wantVerdicts[i] {
			t.Errorf("%s: verdict %q, want %q", row[0], verdict, wantVerdicts[i])
		}
		if strings.HasPrefix(row[1], "0") {
			t.Errorf("%s: no switches discovered: %v", row[0], row)
		}
	}
}

// TestExtScaleRegistered pins the registry entry: ext-scale exists and
// is marked Heavy so `asibench -exp all` and the full-runner smoke test
// skip it.
func TestExtScaleRegistered(t *testing.T) {
	r, err := ByID("ext-scale")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Heavy {
		t.Fatal("ext-scale must be marked Heavy")
	}
}
