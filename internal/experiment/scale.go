package experiment

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/sim"
)

// scaleRows lists the swept fabrics, by catalogue or parametric name, in
// size order, from the largest
// Table 1 grid up to the 10k-switch dragonfly. Every family is
// represented: grid, paper fat-tree, auto-designed two-layer fat-tree,
// and dragonfly. Grids stop at Table 1's 10x10: path depth grows with
// the square root of the switch count, and even the widened 64-bit
// turn pool holds only 21 of a 5-port grid switch's 3-bit turns (a
// 32x32 torus needs up to 32), so large grids are unroutable under
// ASI source routing — which is exactly why the diameter-3 families
// are the scaling path.
func scaleRows() []string {
	return []string{
		"10x10 torus",
		"16-port 3-tree",
		"autofat 128x4096",
		"dragonfly 8x32",
		"dragonfly 16x64",
		"dragonfly 16x313",
		"dragonfly 16x625",
	}
}

// scaleHorizon bounds each phase at scale: a 10k-switch dragonfly's
// discovery takes ~540 simulated seconds, far beyond the chaos default
// of 30.
const scaleHorizon = 3600 * sim.Second

// ExtScale measures discovery at fabric sizes the paper never reaches
// (Table 1 tops out at 100 switches): up to 10k switches across every
// generator family. Each row is one chaos-executor run with an empty
// event script — an initial discovery, then an audit that rediscovers
// the converged fabric a second time — convergence-checked against the
// alive-fabric ground truth by the oracle. The table holds simulated
// quantities only, so it is as deterministic as the paper's; asibench
// prints the sweep's wall time and events per second on stderr.
func ExtScale() Report {
	return extScale(scaleRows())
}

// extScale runs the sweep over an explicit row set; tests use a trimmed
// one to keep the regular suite fast.
func extScale(rows []string) Report {
	r := Report{
		ID:     "ext-scale",
		Title:  "Discovery at scale: 100-10,000-switch fabrics across all generator families",
		Header: []string{"Topology", "Switches", "Devices", "Links", "Discovery (s)", "Sim events", "Verdict"},
		Notes: []string{
			"each row is one chaos-executor run with no scripted events; the verdict is the convergence oracle's",
			"every row is audited ('converged (audit)'): the settled fabric is rediscovered a second time",
		},
	}
	for _, name := range rows {
		sc := chaos.Scenario{
			Name:      "scale " + name,
			Seed:      1,
			Algorithm: "parallel",
		}
		sc.Topology.Catalogue = name
		rep, err := chaos.Execute(sc, chaos.Options{Horizon: scaleHorizon})
		if err != nil {
			r.Rows = append(r.Rows, []string{name, "", "", "", "", "", "ERR " + err.Error()})
			continue
		}
		verdict := "converged (audit)"
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
			name,
			fmt.Sprint(switches),
			fmt.Sprint(rep.WantDevices),
			fmt.Sprint(rep.WantLinks),
			fmt.Sprintf("%.3f", discovery.Seconds()),
			fmt.Sprint(rep.Processed),
			verdict,
		})
	}
	return r
}
