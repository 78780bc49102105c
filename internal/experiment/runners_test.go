package experiment

import (
	"strings"
	"testing"
)

// TestAllRunnersSmoke checks that every registered experiment's reports
// are well-formed and error-free. Outside -race it checks the reports
// TestReportsMatchCommittedResults rendered, so nothing is simulated
// twice; under -race, where that referee is skipped, it runs each
// experiment at one seed itself. Skip with -short.
func TestAllRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for i, r := range Runners() {
		t.Run(r.ID, func(t *testing.T) {
			var reports []Report
			switch {
			case !raceEnabled:
				reports = committedReports()[i]
			case r.ID == "ext-scale":
				// Up to 10k switches: too slow under -race.
				t.Skip("ext-scale is covered by TestReportsMatchCommittedResults and TestExtScaleTrimmed")
			default:
				t.Parallel()
				reports = r.Run(Opts{Seeds: 1})
			}
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
