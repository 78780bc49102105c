package experiment

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/sim"
)

// scaleRow is one ext-scale fabric: a catalogue or parametric topology
// name plus whether the run audits (a second full rediscovery after the
// first converges). The audit doubles the cost, so the largest fabrics
// verify the initial discovery against ground truth only.
type scaleRow struct {
	Topology string
	Audit    bool
}

// scaleRows lists the swept fabrics in size order, from the largest
// Table 1 grid up to the 10k-switch dragonfly. Every family is
// represented: grid, paper fat-tree, auto-designed two-layer fat-tree,
// and dragonfly. Grids stop at Table 1's 10x10: path depth grows with
// the square root of the switch count, and even the widened 64-bit
// turn pool holds only 21 of a 5-port grid switch's 3-bit turns (a
// 32x32 torus needs up to 32), so large grids are unroutable under
// ASI source routing — which is exactly why the diameter-3 families
// are the scaling path.
func scaleRows() []scaleRow {
	return []scaleRow{
		{"10x10 torus", true},
		{"16-port 3-tree", true},
		{"autofat 128x4096", true},
		{"dragonfly 8x32", true},
		{"dragonfly 16x64", true},
		{"dragonfly 16x313", false},
		{"dragonfly 16x625", false},
	}
}

// scaleHorizon bounds each phase at scale: a 10k-switch dragonfly's
// discovery takes ~540 simulated seconds, far beyond the chaos default
// of 30.
const scaleHorizon = 3600 * sim.Second

// ExtScale measures discovery at fabric sizes the paper never reaches
// (Table 1 tops out at 100 switches): up to 10k switches across every
// generator family. Each row is one chaos-executor run with an empty
// event script — pure initial discovery, convergence-checked against the
// alive-fabric ground truth by the oracle; audited rows rediscover the
// converged fabric a second time. Rows run sequentially so the
// events-per-second column is honest single-run simulator throughput.
func ExtScale() Report {
	return extScale(scaleRows())
}

// extScale runs the sweep over an explicit row set; tests use a trimmed
// one to keep the regular suite fast.
func extScale(rows []scaleRow) Report {
	r := Report{
		ID:     "ext-scale",
		Title:  "Discovery at scale: 100-10,000-switch fabrics across all generator families",
		Header: []string{"Topology", "Switches", "Devices", "Links", "Discovery (s)", "Sim events", "Events/s", "Verdict"},
		Notes: []string{
			"each row is one chaos-executor run with no scripted events; the verdict is the convergence oracle's",
			"audited rows ('converged (audit)') rediscover the settled fabric a second time; the largest rows check the initial discovery only",
			"Events/s is wall-clock simulator throughput for that row, measured sequentially",
		},
	}
	for _, row := range rows {
		sc := chaos.Scenario{
			Name:      "scale " + row.Topology,
			Seed:      1,
			Algorithm: "parallel",
		}
		sc.Topology.Catalogue = row.Topology
		opt := chaos.Options{Horizon: scaleHorizon, NoAudit: !row.Audit}
		start := time.Now()
		rep, err := chaos.Execute(sc, opt)
		wall := time.Since(start)
		if rep != nil {
			// Chaos runs bypass RunConfig, so fold their event counts into
			// the package tally asibench derives events/sec from.
			totalEvents.Add(rep.Processed)
		}
		if err != nil {
			r.Rows = append(r.Rows, []string{row.Topology, "", "", "", "", "", "", "ERR " + err.Error()})
			continue
		}
		verdict := "converged (initial)"
		if row.Audit {
			verdict = "converged (audit)"
		}
		if oerr := (chaos.Oracle{}).Check(rep); oerr != nil {
			verdict = "VIOLATION: " + oerr.Error()
		}
		var discovery sim.Duration
		switches := 0
		if len(rep.Results) > 0 {
			discovery = rep.Results[0].Duration
			switches = rep.Results[0].Switches
		}
		r.Rows = append(r.Rows, []string{
			row.Topology,
			fmt.Sprint(switches),
			fmt.Sprint(rep.WantDevices),
			fmt.Sprint(rep.WantLinks),
			fmt.Sprintf("%.3f", discovery.Seconds()),
			fmt.Sprint(rep.Processed),
			fmt.Sprintf("%.0f", float64(rep.Processed)/wall.Seconds()),
			verdict,
		})
	}
	return r
}
