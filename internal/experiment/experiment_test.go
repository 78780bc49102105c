package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// fmtSscan parses a float cell.
func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

func TestRunNoChangeMeasuresInitialDiscovery(t *testing.T) {
	o := RunConfig(Config{Topology: "3x3 mesh", Algorithm: core.Parallel, Seed: 1, Change: NoChange})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Result.Devices != 18 || o.ActiveNodes != 18 {
		t.Errorf("devices=%d active=%d", o.Result.Devices, o.ActiveNodes)
	}
	if o.PhysicalNodes != 18 || o.Switches != 9 {
		t.Errorf("physical=%d switches=%d", o.PhysicalNodes, o.Switches)
	}
	if o.Result.Duration <= 0 {
		t.Error("no duration measured")
	}
}

func TestRunRemoveSwitchMeasuresAssimilation(t *testing.T) {
	for _, k := range core.PaperKinds() {
		o := RunConfig(Config{Topology: "4x4 mesh", Algorithm: k, Seed: 3, Change: RemoveSwitch})
		if o.Err != nil {
			t.Fatalf("%v: %v", k, o.Err)
		}
		if o.ActiveNodes >= o.PhysicalNodes {
			t.Errorf("%v: removal did not reduce active nodes (%d/%d)", k, o.ActiveNodes, o.PhysicalNodes)
		}
		if o.Result.Devices != o.ActiveNodes {
			t.Errorf("%v: rediscovered %d devices, active %d", k, o.Result.Devices, o.ActiveNodes)
		}
		if o.Result.Start <= o.Initial.End {
			t.Errorf("%v: assimilation not after initial discovery", k)
		}
	}
}

// TestPartialTimelineCoversEveryRun: a partial assimilation may finish
// in several runs (at these seeds the first run processes no packet and
// the second all of them), and the measured result's timeline must hold
// one point per processed packet across all of them, in order.
func TestPartialTimelineCoversEveryRun(t *testing.T) {
	for seed := uint64(2); seed <= 5; seed++ {
		o := RunConfig(Config{Topology: "8x8 torus", Algorithm: core.Partial, Seed: seed, Change: RemoveSwitch})
		if o.Err != nil {
			t.Fatalf("seed %d: %v", seed, o.Err)
		}
		tl := o.Result.Timeline
		if o.Result.Processed == 0 || len(tl) != o.Result.Processed {
			t.Errorf("seed %d: %d timeline points for %d processed packets", seed, len(tl), o.Result.Processed)
		}
		for i := 1; i < len(tl); i++ {
			if tl[i] < tl[i-1] {
				t.Errorf("seed %d: timeline point %d at %v precedes point %d at %v", seed, i+1, tl[i], i, tl[i-1])
				break
			}
		}
	}
}

func TestRunAddSwitchRestoresFullTopology(t *testing.T) {
	o := RunConfig(Config{Topology: "4x4 torus", Algorithm: core.SerialDevice, Seed: 2, Change: AddSwitch})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.ActiveNodes != o.PhysicalNodes {
		t.Errorf("addition did not restore the fabric: %d/%d", o.ActiveNodes, o.PhysicalNodes)
	}
	if o.Initial.Devices >= o.Result.Devices {
		t.Errorf("initial %d devices not smaller than post-addition %d", o.Initial.Devices, o.Result.Devices)
	}
}

func TestRunSameSeedSameChangeTarget(t *testing.T) {
	a := RunConfig(Config{Topology: "6x6 mesh", Algorithm: core.SerialPacket, Seed: 5, Change: RemoveSwitch})
	b := RunConfig(Config{Topology: "6x6 mesh", Algorithm: core.Parallel, Seed: 5, Change: RemoveSwitch})
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.ActiveNodes != b.ActiveNodes {
		t.Errorf("same seed removed different switches: %d vs %d active", a.ActiveNodes, b.ActiveNodes)
	}
}

func TestRunUnknownTopology(t *testing.T) {
	if o := RunConfig(Config{Topology: "nope"}); o.Err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestRunConfigAllPreservesOrder(t *testing.T) {
	cfgs := []Config{
		{Topology: "3x3 mesh", Algorithm: core.Parallel, Seed: 1, Change: NoChange},
		{Topology: "3x3 torus", Algorithm: core.SerialPacket, Seed: 2, Change: NoChange},
		{Topology: "4-port 2-tree", Algorithm: core.SerialDevice, Seed: 3, Change: NoChange},
	}
	outs := RunConfigAll(cfgs, 2)
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("run %d: %v", i, o.Err)
		}
		if o.Config.Topology != cfgs[i].Topology {
			t.Errorf("order broken at %d: %s", i, o.Config.Topology)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := Report{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bcd"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1ReportMatchesCatalogue(t *testing.T) {
	r := Table1Report()
	if len(r.Rows) != 13 {
		t.Fatalf("Table 1 has %d rows", len(r.Rows))
	}
	if r.Rows[0][0] != "3x3 mesh" || r.Rows[0][3] != "18" {
		t.Errorf("first row: %v", r.Rows[0])
	}
	if r.Rows[12][0] != "8-port 2-tree" || r.Rows[12][3] != "44" {
		t.Errorf("last row: %v", r.Rows[12])
	}
}

func TestRegistryHasAllExperiments(t *testing.T) {
	want := []string{"table1", "fig4", "fig6", "fig7a", "fig7b", "fig8", "fig9",
		"ext-partial", "ext-distributed", "ext-traffic", "ext-loss", "ext-failover",
		"ext-churn", "ext-scale"}
	got := Runners()
	if len(got) != len(want) {
		t.Fatalf("%d runners, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("runner %d = %s, want %s", i, got[i].ID, id)
		}
		if got[i].Desc == "" {
			t.Errorf("runner %s has no description", id)
		}
	}
	if _, err := ByID("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("bogus"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestChangeString(t *testing.T) {
	if NoChange.String() != "none" || RemoveSwitch.String() != "remove" || AddSwitch.String() != "add" {
		t.Error("change strings wrong")
	}
	if Change(9).String() == "" {
		t.Error("unknown change empty")
	}
}

// The figure smoke tests run reduced versions of each experiment and
// verify the paper's qualitative claims hold in the output.

func TestFig4Shape(t *testing.T) {
	r := Fig4(0)
	if len(r.Rows) != 13 {
		t.Fatalf("fig4 rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		var sp, sd, p float64
		if _, err := sscan(row[2], &sp); err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if _, err := sscan(row[3], &sd); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[4], &p); err != nil {
			t.Fatal(err)
		}
		if !(p < sd && sd < sp) {
			t.Errorf("%s: Fig. 4 ordering violated: SP=%v SD=%v P=%v", row[0], sp, sd, p)
		}
	}
}

func TestFig7aSlopes(t *testing.T) {
	r := Fig7a()
	if len(r.Rows) < 20 {
		t.Fatalf("fig7a rows = %d", len(r.Rows))
	}
	// Final timestamps must order Parallel < Serial Device < Serial
	// Packet; scan last complete row per column.
	last := func(col int) float64 {
		for i := len(r.Rows) - 1; i >= 0; i-- {
			if r.Rows[i][col] != "" {
				var v float64
				if _, err := sscan(r.Rows[i][col], &v); err == nil {
					return v
				}
			}
		}
		return 0
	}
	sp, sd, p := last(1), last(2), last(3)
	if !(p < sd && sd < sp) {
		t.Errorf("timeline endpoints out of order: SP=%v SD=%v P=%v", sp, sd, p)
	}
}

func TestFig8Shape(t *testing.T) {
	reports := Fig8(0)
	if len(reports) != 2 {
		t.Fatal("fig8 must return two panels")
	}
	a := reports[0]
	// Discovery time decreases as the FM factor grows, for every
	// algorithm.
	for col := 1; col <= 3; col++ {
		var first, lastV float64
		if _, err := sscan(a.Rows[0][col], &first); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(a.Rows[len(a.Rows)-1][col], &lastV); err != nil {
			t.Fatal(err)
		}
		if lastV >= first {
			t.Errorf("fig8a col %d: time did not decrease with FM factor (%v -> %v)", col, first, lastV)
		}
	}
	// Device factor: the serial algorithms improve with faster devices;
	// Parallel barely moves between factor 1 and factor 8.
	b := reports[1]
	get := func(row, col int) float64 {
		var v float64
		if _, err := sscan(b.Rows[row][col], &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	idxOf := func(label string) int {
		for i, row := range b.Rows {
			if row[0] == label {
				return i
			}
		}
		t.Fatalf("factor %s missing", label)
		return -1
	}
	one, eight := idxOf("1.000"), idxOf("8.000")
	if !(get(eight, 1) < get(one, 1)) {
		t.Error("Serial Packet not improved by faster devices")
	}
	pRel := get(eight, 3) / get(one, 3)
	if pRel < 0.93 || pRel > 1.05 {
		t.Errorf("Parallel moved %.3fx between device factors 1 and 8; expected ~flat", pRel)
	}
}

// sscan wraps fmt.Sscan for brevity.
func sscan(s string, v *float64) (int, error) {
	return fmtSscan(s, v)
}
