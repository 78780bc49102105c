package experiment

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rig"
)

// TestAllRunnersSmoke executes every registered experiment at minimal
// scale and checks the reports are well-formed and error-free. It runs
// hundreds of simulations; skip with -short.
func TestAllRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, r := range Runners() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			if r.ID == "ext-scale" {
				// Up to 10k switches: too slow under -race.
				// TestReportsMatchCommittedResults runs it in full,
				// TestExtScaleTrimmed its machinery.
				t.Skip("ext-scale is covered by TestReportsMatchCommittedResults and TestExtScaleTrimmed")
			}
			reports := r.Run(Opts{Seeds: 1})
			if len(reports) == 0 {
				t.Fatal("runner produced no reports")
			}
			for _, rep := range reports {
				if rep.ID == "" || rep.Title == "" {
					t.Errorf("report missing id/title: %+v", rep)
				}
				if len(rep.Rows) == 0 {
					t.Errorf("%s: empty report", rep.ID)
				}
				for _, row := range rep.Rows {
					if len(row) != len(rep.Header) {
						t.Errorf("%s: row width %d vs header %d", rep.ID, len(row), len(rep.Header))
					}
					for _, cell := range row {
						if strings.Contains(cell, "ERR") {
							t.Errorf("%s: error cell in row %v", rep.ID, row)
						}
					}
				}
			}
		})
	}
}

// TestRunnersTallyEvents requires a processed-event count from each
// experiment that drives its rigs outside RunConfig, and from a loaded
// ext-traffic run (its idle runs go through RunConfig): asibench reports
// events/s from the rigs' tally. It runs them one after another, not in
// parallel, so the tally holds only the runner's own events.
func TestRunnersTallyEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs skipped in -short mode")
	}
	for _, id := range []string{"ext-churn", "ext-failover", "ext-distributed"} {
		r, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rig.TakeProcessed()
		r.Run(Opts{Seeds: 1})
		if n := rig.TakeProcessed(); n == 0 {
			t.Errorf("%s: the tally counted 0 events", id)
		}
	}
	rig.TakeProcessed()
	if _, err := runLoaded("4x4 mesh", core.Parallel, 1); err != nil {
		t.Fatal(err)
	}
	if n := rig.TakeProcessed(); n == 0 {
		t.Error("a loaded ext-traffic run: the tally counted 0 events")
	}
}

// TestFig6AveragesConsistent cross-checks the per-run and averaged
// reports of one sweep: the average of a topology's runs must lie within
// its per-run extremes.
func TestFig6AveragesConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	reports := Fig6(2, 0)
	perRun, avg := reports[0], reports[1]
	minMax := map[string][2]float64{}
	for _, row := range perRun.Rows {
		var v float64
		if _, err := fmtSscan(row[4], &v); err != nil {
			t.Fatalf("bad cell %q", row[4])
		}
		mm, ok := minMax[row[0]]
		if !ok {
			mm = [2]float64{v, v}
		}
		if v < mm[0] {
			mm[0] = v
		}
		if v > mm[1] {
			mm[1] = v
		}
		minMax[row[0]] = mm
	}
	for _, row := range avg.Rows {
		var v float64
		if _, err := fmtSscan(row[2], &v); err != nil {
			t.Fatalf("bad avg cell %q", row[2])
		}
		mm := minMax[row[0]]
		if v < mm[0]-1e-12 || v > mm[1]+1e-12 {
			t.Errorf("%s: average %v outside per-run range %v", row[0], v, mm)
		}
	}
}
