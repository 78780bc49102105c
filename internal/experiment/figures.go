package experiment

import (
	"fmt"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Formatting helpers: the paper's axes use seconds (discovery time) and
// microseconds (FM processing time).
func secs(d sim.Duration) string  { return fmt.Sprintf("%.6f", d.Seconds()) }
func usecs(d sim.Duration) string { return fmt.Sprintf("%.2f", d.Microseconds()) }

// Table1Report reproduces Table 1: the topologies evaluated.
func Table1Report() Report {
	r := Report{
		ID:     "table1",
		Title:  "Topologies evaluated",
		Header: []string{"Topology", "Switches", "Endpoints", "Total Devices"},
	}
	for _, s := range topo.Table1() {
		tp := s.Build()
		r.Rows = append(r.Rows, []string{
			s.Name,
			fmt.Sprint(tp.NumSwitches()),
			fmt.Sprint(tp.NumEndpoints()),
			fmt.Sprint(len(tp.Nodes)),
		})
	}
	return r
}

// Fig4 reproduces Fig. 4: average time to process a PI-4 packet at the FM
// for each discovery algorithm, as a function of the network size.
func Fig4(workers int) Report {
	cfgs := make([]Config, 0, len(topo.Table1())*3)
	for _, s := range topo.Table1() {
		for _, k := range core.PaperKinds() {
			cfgs = append(cfgs, Config{Topology: s.Name, Algorithm: k, Seed: 1, Change: NoChange})
		}
	}
	outs := RunConfigAll(cfgs, workers)
	r := Report{
		ID:     "fig4",
		Title:  "Average PI-4 processing time at the FM (microseconds) vs network size",
		Header: []string{"Topology", "Switches", "Serial Packet", "Serial Device", "Parallel"},
		Notes: []string{
			"processing time model calibrated to the paper's profiling (Pentium 4, 3.0 GHz): Parallel < Serial Device < Serial Packet, growing mildly with database size",
		},
	}
	for i := 0; i < len(outs); i += 3 {
		o := outs[i]
		row := []string{o.Config.Topology, fmt.Sprint(o.Switches)}
		for j := 0; j < 3; j++ {
			if outs[i+j].Err != nil {
				row = append(row, "ERR")
				continue
			}
			row = append(row, usecs(outs[i+j].Result.AvgFMProcessing()))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// changeSweep runs the paper's change experiment (random switch removal
// and addition, several seeds) for every Table 1 topology under the given
// processing factors, all three algorithms per scenario.
func changeSweep(seeds, workers int, fmFactor, devFactor float64) []Outcome {
	var cfgs []Config
	for _, s := range topo.Table1() {
		for seed := 1; seed <= seeds; seed++ {
			for _, ch := range []Change{RemoveSwitch, AddSwitch} {
				for _, k := range core.PaperKinds() {
					cfgs = append(cfgs, Config{
						Topology: s.Name, Algorithm: k,
						Seed: uint64(seed), Change: ch,
						FMFactor: fmFactor, DeviceFactor: devFactor,
					})
				}
			}
		}
	}
	return RunConfigAll(cfgs, workers)
}

// sweepReports renders a change sweep as the Fig. 6(a)-style per-run
// table and the Fig. 6(b)-style per-topology averages.
func sweepReports(outs []Outcome, idA, titleA, idB, titleB string) (perRun, averaged Report) {
	perRun = Report{
		ID:     idA,
		Title:  titleA,
		Header: []string{"Topology", "Change", "Seed", "Active Nodes", "Serial Packet (s)", "Serial Device (s)", "Parallel (s)"},
	}
	averaged = Report{
		ID:     idB,
		Title:  titleB,
		Header: []string{"Topology", "Physical Nodes", "Serial Packet (s)", "Serial Device (s)", "Parallel (s)"},
	}
	// Running means (mean += (x-mean)/n): a sweep needs nothing else, so
	// no run's duration is retained.
	type runningMean struct {
		n    int
		mean float64
	}
	agg := map[string]*[3]runningMean{}
	nodes := map[string]int{}
	order := []string{}
	for i := 0; i+2 < len(outs); i += 3 {
		o := outs[i]
		row := []string{
			o.Config.Topology, o.Config.Change.String(), fmt.Sprint(o.Config.Seed),
			fmt.Sprint(o.ActiveNodes),
		}
		if _, ok := agg[o.Config.Topology]; !ok {
			agg[o.Config.Topology] = new([3]runningMean)
			nodes[o.Config.Topology] = o.PhysicalNodes
			order = append(order, o.Config.Topology)
		}
		for j := 0; j < 3; j++ {
			oj := outs[i+j]
			if oj.Err != nil {
				row = append(row, "ERR")
				continue
			}
			row = append(row, secs(oj.Result.Duration))
			m := &agg[o.Config.Topology][j]
			m.n++
			m.mean += (oj.Result.Duration.Seconds() - m.mean) / float64(m.n)
		}
		perRun.Rows = append(perRun.Rows, row)
	}
	for _, name := range order {
		row := []string{name, fmt.Sprint(nodes[name])}
		for j := 0; j < 3; j++ {
			row = append(row, fmt.Sprintf("%.6f", agg[name][j].mean))
		}
		averaged.Rows = append(averaged.Rows, row)
	}
	return perRun, averaged
}

// Fig6 reproduces Fig. 6: discovery time after a topological change, (a)
// per run against active reachable nodes and (b) averaged per topology
// against physical nodes.
func Fig6(seeds, workers int) []Report {
	outs := changeSweep(seeds, workers, 1, 1)
	a, b := sweepReports(outs,
		"fig6a", "Discovery time vs amount of active nodes (per run)",
		"fig6b", "Discovery time vs network size (average per topology)")
	return []Report{a, b}
}

// Fig7a reproduces Fig. 7(a): the simulation time at which the FM
// finishes processing each discovery packet, for the 3x3 mesh with all
// devices active.
func Fig7a() Report {
	r := Report{
		ID:     "fig7a",
		Title:  "Time at which each discovery packet is processed at the FM (3x3 mesh)",
		Header: []string{"Packet #", "Serial Packet (s)", "Serial Device (s)", "Parallel (s)"},
		Notes: []string{
			"Serial Packet: constant slope (FM idles a full round trip per packet)",
			"Serial Device: slope alternates between serialized probes and pipelined port reads",
			"Parallel: constant minimal slope (FM pipeline always full)",
		},
	}
	var lines [3][]sim.Time
	for j, k := range core.PaperKinds() {
		o := RunConfig(Config{Topology: "3x3 mesh", Algorithm: k, Seed: 1, Change: NoChange})
		if o.Err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("%v failed: %v", k, o.Err))
			continue
		}
		lines[j] = o.Result.Timeline
	}
	maxLen := 0
	for _, l := range lines {
		if len(l) > maxLen {
			maxLen = len(l)
		}
	}
	for i := 0; i < maxLen; i++ {
		row := []string{fmt.Sprint(i + 1)}
		for j := 0; j < 3; j++ {
			if i < len(lines[j]) {
				row = append(row, fmt.Sprintf("%.6f", lines[j][i].Seconds()))
			} else {
				row = append(row, "")
			}
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig7b reproduces Fig. 7(b): the idealized serial and parallel per-packet
// behaviours in terms of T_FM, T_Device and T_Prop, evaluated with the
// model's default calibration.
func Fig7b() Report {
	// Representative one-hop transfer: a ~40-byte management packet.
	tProp := fabric.Propagation + fabric.SwitchLatency + sim.Nanos(40*8/asi.LinkEffectiveGbps)
	tDev := fabric.DeviceProcessing
	const dbSize = 18 // 3x3 mesh, fully discovered
	r := Report{
		ID:     "fig7b",
		Title:  "Idealized serial vs parallel per-packet behaviour",
		Header: []string{"Quantity", "Expression", "Value"},
		Notes: []string{
			"serial: the FM idles for the full round trip after every packet",
			"parallel: round trips overlap with FM processing, so T_FM alone paces the pipeline",
		},
	}
	add := func(name, expr string, v sim.Duration) {
		r.Rows = append(r.Rows, []string{name, expr, v.String()})
	}
	add("T_Prop (per direction)", "wire + switch + serialization", tProp)
	add("T_Device", "PI-4 service at a device", tDev)
	for _, k := range core.PaperKinds() {
		add(fmt.Sprintf("T_FM (%v)", k), "processing model at 18 devices", core.FMProcessing(k, dbSize, 1))
	}
	add("serial per-packet", "T_FM + 2*T_Prop + T_Device",
		core.FMProcessing(core.SerialPacket, dbSize, 1)+2*tProp+tDev)
	add("parallel per-packet", "T_FM",
		core.FMProcessing(core.Parallel, dbSize, 1))
	return r
}

// Fig8 reproduces Fig. 8: discovery time on the 8x8 mesh (all devices
// active) as the FM and device processing factors vary.
func Fig8(workers int) []Report {
	fmFactors := []float64{0.25, 0.5, 1, 1.5, 2, 3, 4}
	devFactors := []float64{0.02, 0.05, 0.1, 0.2, 1.0 / 3, 0.5, 1, 2, 4, 8}

	factorSweep := func(id, title, label string, factors []float64, vary func(f float64) (fmF, devF float64)) Report {
		var cfgs []Config
		for _, f := range factors {
			fmF, devF := vary(f)
			for _, k := range core.PaperKinds() {
				cfgs = append(cfgs, Config{
					Topology: "8x8 mesh", Algorithm: k, Seed: 1, Change: NoChange,
					FMFactor: fmF, DeviceFactor: devF,
				})
			}
		}
		outs := RunConfigAll(cfgs, workers)
		r := Report{
			ID:     id,
			Title:  title,
			Header: []string{label, "Serial Packet (s)", "Serial Device (s)", "Parallel (s)"},
		}
		for i, f := range factors {
			row := []string{fmt.Sprintf("%.3f", f)}
			for j := 0; j < 3; j++ {
				o := outs[i*3+j]
				if o.Err != nil {
					row = append(row, "ERR")
					continue
				}
				row = append(row, secs(o.Result.Duration))
			}
			r.Rows = append(r.Rows, row)
		}
		return r
	}

	a := factorSweep("fig8a",
		"Discovery time vs FM processing factor (8x8 mesh, device factor = 1)",
		"FM factor", fmFactors,
		func(f float64) (float64, float64) { return f, 1 })
	b := factorSweep("fig8b",
		"Discovery time vs device processing factor (8x8 mesh, FM factor = 1)",
		"Device factor", devFactors,
		func(f float64) (float64, float64) { return 1, f })
	return []Report{a, b}
}

// Fig9 reproduces Fig. 9: the Fig. 6(a) experiment repeated at three
// processing-factor combinations.
func Fig9(seeds, workers int) []Report {
	panels := []struct {
		id         string
		fmF, devF  float64
		titleExtra string
	}{
		{"fig9a", 1, 1, "FM factor = 1, device factor = 1"},
		{"fig9b", 1, 0.2, "FM factor = 1, device factor = 0.2"},
		{"fig9c", 4, 0.2, "FM factor = 4, device factor = 0.2"},
	}
	var reports []Report
	for _, p := range panels {
		outs := changeSweep(seeds, workers, p.fmF, p.devF)
		a, _ := sweepReports(outs,
			p.id, "Discovery time vs active nodes ("+p.titleExtra+")",
			p.id+"-avg", "")
		reports = append(reports, a)
	}
	return reports
}
