package experiment

import (
	"bytes"
	"os"
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
		var secs [3]float64 // Serial Packet, Serial Device, Parallel: the last three columns
		for i, cell := range row[len(row)-3:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("fig6a row %q: %v", row, err)
			}
			secs[i] = v
		}
		if packet, device, parallel := secs[0], secs[1], secs[2]; !(parallel < device && device < packet) {
			t.Errorf("fig6a row %q: Parallel %v, Serial Device %v, Serial Packet %v; %s",
				strings.Join(row, " "), parallel, device, packet, paper)
		}
	}
}
