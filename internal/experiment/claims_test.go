package experiment

import (
	"bytes"
	"cmp"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// committedSection returns the rows of one report of the committed
// `asibench -seeds 4` run, each split into its whitespace-separated
// fields. TestReportsMatchCommittedResults holds that file equal to a
// fresh rendering, so a claim checked here is checked on the simulation
// without running it again.
func committedSection(t *testing.T, id string) [][]string {
	t.Helper()
	out, err := os.ReadFile("../../results/asibench-seeds4.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections(out) {
		if !bytes.HasPrefix(s, []byte("== "+id+": ")) {
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(s)), "\n")
		var rows [][]string
		for _, l := range lines[3:] { // banner, header, rule
			if strings.HasPrefix(l, "note: ") {
				break
			}
			rows = append(rows, strings.Fields(l))
		}
		return rows
	}
	t.Fatalf("results/asibench-seeds4.txt has no %s section", id)
	return nil
}

// TestFig6OrderOnEveryRun: every per-run row of Fig. 6(a) — 13 Table 1
// fabrics, a switch removed or added, four seeds — finds Parallel faster
// than Serial Device, and Serial Device faster than Serial Packet.
func TestFig6OrderOnEveryRun(t *testing.T) {
	const paper = `PAPER.md: the evaluation measures "discovery time after a topological change", ` +
		`and the published trends hold for "Parallel < Serial Device < Serial Packet"`
	rows := committedSection(t, "fig6a")
	if len(rows) != 13*2*4 {
		t.Fatalf("fig6a has %d rows, want 104 (13 fabrics x remove/add x 4 seeds)", len(rows))
	}
	for _, row := range rows {
		secs := lastFloats(t, "fig6a", row, 3) // Serial Packet, Serial Device, Parallel
		if packet, device, parallel := secs[0], secs[1], secs[2]; !(parallel < device && device < packet) {
			t.Errorf("fig6a row %q: Parallel %v, Serial Device %v, Serial Packet %v; %s",
				strings.Join(row, " "), parallel, device, packet, paper)
		}
	}
}

// lastFloats parses the last n cells of a committed row.
func lastFloats(t *testing.T, id string, row []string, n int) []float64 {
	t.Helper()
	if len(row) < n {
		t.Fatalf("%s row %q has fewer than %d cells", id, row, n)
	}
	v := make([]float64, n)
	for i, cell := range row[len(row)-n:] {
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("%s row %q: %v", id, row, err)
		}
		v[i] = f
	}
	return v
}

// algorithmColumns names the last three columns of the fig6b, fig8a and
// fig8b tables.
var algorithmColumns = [3]string{"Serial Packet", "Serial Device", "Parallel"}

// TestFig8aFMFactorSpeedsEveryAlgorithm: on the 8x8 mesh, every
// algorithm's discovery time strictly falls as the FM processing factor
// rises from 0.25 to 4, and Parallel < Serial Device < Serial Packet on
// every row.
func TestFig8aFMFactorSpeedsEveryAlgorithm(t *testing.T) {
	const paper = `PAPER.md: the evaluation measures "sensitivity to FM/device processing speeds", ` +
		`with T_FM and T_Device "scaled by factors in Figs. 8–9"`
	rows := committedSection(t, "fig8a")
	if len(rows) != 7 {
		t.Fatalf("fig8a has %d rows, want 7 FM factors (0.25 to 4)", len(rows))
	}
	var prev []float64
	for _, row := range rows {
		v := lastFloats(t, "fig8a", row, 4) // factor, then the three algorithms
		if packet, device, parallel := v[1], v[2], v[3]; !(parallel < device && device < packet) {
			t.Errorf("fig8a FM factor %v: Parallel %v, Serial Device %v, Serial Packet %v; %s",
				v[0], parallel, device, packet, paper)
		}
		for i, name := range algorithmColumns {
			if prev != nil && !(v[i+1] < prev[i+1]) {
				t.Errorf("fig8a: %s takes %v s at FM factor %v, not less than %v s at %v; %s",
					name, v[i+1], v[0], prev[i+1], prev[0], paper)
			}
		}
		prev = v
	}
}

// TestFig8bDeviceFactorSensitivity: on the 8x8 mesh, no algorithm's time
// rises with the device processing factor; Parallel, which overlaps the
// device service of many requests, barely moves (max/min under 1.15),
// while the serial algorithms, which wait on each device in turn, vary
// more than threefold.
func TestFig8bDeviceFactorSensitivity(t *testing.T) {
	const paper = `PAPER.md: the evaluation measures "sensitivity to FM/device processing speeds", ` +
		`with T_FM and T_Device "scaled by factors in Figs. 8–9"`
	rows := committedSection(t, "fig8b")
	if len(rows) < 2 {
		t.Fatalf("fig8b has %d rows, want a sweep of device factors", len(rows))
	}
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	var hi [3]float64
	var prev []float64
	for _, row := range rows {
		v := lastFloats(t, "fig8b", row, 4)
		for i, name := range algorithmColumns {
			if prev != nil && v[i+1] > prev[i+1] {
				t.Errorf("fig8b: %s takes %v s at device factor %v, more than %v s at %v; %s",
					name, v[i+1], v[0], prev[i+1], prev[0], paper)
			}
			lo[i], hi[i] = min(lo[i], v[i+1]), max(hi[i], v[i+1])
		}
		prev = v
	}
	for i, name := range algorithmColumns {
		switch ratio := hi[i] / lo[i]; {
		case name == "Parallel" && ratio >= 1.15:
			t.Errorf("fig8b: Parallel max/min = %v/%v = %.3f, want under 1.15; %s", hi[i], lo[i], ratio, paper)
		case name != "Parallel" && ratio <= 3:
			t.Errorf("fig8b: %s max/min = %v/%v = %.3f, want over 3; %s", name, hi[i], lo[i], ratio, paper)
		}
	}
}

// TestFig6bSerialGapGrowsWithSize: within each family of Fig. 6(b) —
// meshes, tori, k-ary n-trees — the gap between Serial Packet and
// Parallel strictly grows with the number of physical nodes.
func TestFig6bSerialGapGrowsWithSize(t *testing.T) {
	const paper = `PAPER.md: the evaluation measures "discovery time after a topological change", ` +
		`and the published trends hold for "Parallel < Serial Device < Serial Packet"`
	type point struct {
		name       string
		nodes, gap float64
	}
	families := map[string][]point{}
	for _, row := range committedSection(t, "fig6b") {
		v := lastFloats(t, "fig6b", row, 4) // physical nodes, then the three algorithms
		name := strings.Join(row[:len(row)-4], " ")
		family := name[strings.LastIndexAny(name, " -")+1:]
		families[family] = append(families[family], point{name, v[0], v[1] - v[3]})
	}
	for _, family := range []string{"mesh", "torus", "tree"} {
		pts := families[family]
		if len(pts) < 3 {
			t.Fatalf("fig6b has %d %s rows, want at least 3", len(pts), family)
		}
		slices.SortFunc(pts, func(a, b point) int { return cmp.Compare(a.nodes, b.nodes) })
		for i := 1; i < len(pts); i++ {
			if !(pts[i].nodes > pts[i-1].nodes && pts[i].gap > pts[i-1].gap) {
				t.Errorf("fig6b: %s (%v nodes) has a Serial Packet − Parallel gap of %.6f s, %s (%v nodes) %.6f s; want it strictly growing with size; %s",
					pts[i].name, pts[i].nodes, pts[i].gap, pts[i-1].name, pts[i-1].nodes, pts[i-1].gap, paper)
			}
		}
	}
}

// TestFig9GapWidensWithFasterFMAndSlowerDevices: on every run of Fig. 9
// — 13 Table 1 fabrics, a switch removed or added, four seeds — both
// serial algorithms' times over Parallel's rise from panel (a) (FM 1,
// devices 1) to (b) (devices 0.2) to (c) (FM 4, devices 0.2). The paper's
// words are in EXPERIMENTS.md "Fig. 9 — factor combinations": the
// difference between Parallel and the serial algorithms increases,
// independently of the fabric size.
func TestFig9GapWidensWithFasterFMAndSlowerDevices(t *testing.T) {
	const paper = `PAPER.md: the evaluation measures "sensitivity to FM/device processing speeds", ` +
		`with T_FM and T_Device "scaled by factors in Figs. 8–9"`
	panels := []string{"fig9a", "fig9b", "fig9c"}
	var rows [3][][]string
	for i, id := range panels {
		if rows[i] = committedSection(t, id); len(rows[i]) != 13*2*4 {
			t.Fatalf("%s has %d rows, want 104 (13 fabrics x remove/add x 4 seeds)", id, len(rows[i]))
		}
	}
	for r := range rows[0] {
		key := strings.Join(rows[0][r][:len(rows[0][r])-3], " ")
		var prev [2]float64
		for i, id := range panels {
			if k := strings.Join(rows[i][r][:len(rows[i][r])-3], " "); k != key {
				t.Fatalf("%s row %d is %q, fig9a's is %q", id, r+1, k, key)
			}
			secs := lastFloats(t, id, rows[i][r], 3) // Serial Packet, Serial Device, Parallel
			ratios := [2]float64{secs[0] / secs[2], secs[1] / secs[2]}
			for j, name := range algorithmColumns[:2] {
				if i > 0 && !(ratios[j] > prev[j]) {
					t.Errorf("%s row %q: %s / Parallel = %.3f, not above %s's %.3f; %s",
						id, key, name, ratios[j], panels[i-1], prev[j], paper)
				}
			}
			prev = ratios
		}
	}
}

// TestExtScaleEveryRowConvergesAudited: every ext-scale row, up to the
// 10 000-switch dragonfly 16x625, reads "converged (audit)". The chaos
// oracle refuses a run with a failed event-route write on a loss-free
// fabric, and the 16x625 row's round of 19 999 writes is the one that
// fills the FM's upkeep window (4 096 in flight), so the row also holds
// that the window drains a round whole.
func TestExtScaleEveryRowConvergesAudited(t *testing.T) {
	const doc = `EXPERIMENTS.md "Discovery at scale (ext-scale)": "every row converges with a clean ` +
		`oracle verdict, including the 10,000-switch dragonfly 16x625 (20,000 devices)"`
	rows := committedSection(t, "ext-scale")
	if len(rows) != 7 {
		t.Fatalf("ext-scale has %d rows, want 7 (10x10 torus to dragonfly 16x625)", len(rows))
	}
	for _, row := range rows {
		if v := strings.Join(row[max(len(row)-2, 0):], " "); v != "converged (audit)" {
			t.Errorf("ext-scale row %q reads %q, not converged (audit); %s", strings.Join(row, " "), v, doc)
		}
	}
}

// TestExtDistributedMergesEveryReport: every ext-distributed row merged
// every collaborator's report (Missing 0), and no round failed (a round
// that merges without a report reads ERR).
func TestExtDistributedMergesEveryReport(t *testing.T) {
	const doc = `EXPERIMENTS.md "Extensions (paper section 5, future work — implemented here)": ` +
		`"A round that merges without a collaborator's report is a failed round and its row reads ERR"`
	rows := committedSection(t, "ext-distributed")
	if len(rows) != 9 {
		t.Fatalf("ext-distributed has %d rows, want 9 (3 fabrics x 1, 2 and 4 FMs)", len(rows))
	}
	for _, row := range rows {
		line := strings.Join(row, " ")
		if strings.Contains(line, "ERR") {
			t.Errorf("ext-distributed row %q failed its round; %s", line, doc)
			continue
		}
		// Topology (two fields), FMs, time, total, sync, Missing, speedup.
		if len(row) != 8 || row[6] != "0" {
			t.Errorf("ext-distributed row %q: Missing is not 0; %s", line, doc)
		}
	}
}
