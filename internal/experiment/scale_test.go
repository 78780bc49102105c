package experiment

import (
	"strings"
	"testing"
)

// TestExtScaleTrimmed runs the ext-scale machinery over a small row set
// (TestReportsMatchCommittedResults runs the full sweep, up to 10k
// switches): two audited rows, both of which must converge.
func TestExtScaleTrimmed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-switch discovery runs")
	}
	rep := extScale([]string{"dragonfly 8x32", "autofat 32x512"}, 0)
	if len(rep.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("row %d width %d vs header %d", i, len(row), len(rep.Header))
		}
		if verdict := row[len(row)-1]; verdict != "converged (audit)" {
			t.Errorf("%s: verdict %q, want converged (audit)", row[0], verdict)
		}
		if strings.HasPrefix(row[1], "0") {
			t.Errorf("%s: no switches discovered: %v", row[0], row)
		}
	}
}

// TestExtScaleRegistered pins the registry entry: ext-scale exists and
// is the last runner, so `asibench -exp all` prints it after every table
// results/asibench-seeds4.txt held before it was added.
func TestExtScaleRegistered(t *testing.T) {
	if _, err := ByID("ext-scale"); err != nil {
		t.Fatal(err)
	}
	if rs := Runners(); rs[len(rs)-1].ID != "ext-scale" {
		t.Fatalf("the last runner is %s, want ext-scale", rs[len(rs)-1].ID)
	}
}
