package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// discoverSetup is one set-up of a discover workload: the topologies are
// built and every fabric has been discovered once, untimed.
type discoverSetup struct {
	cases     []discoverCase
	topoBuild time.Duration
}

func setupDiscover(spec discoverSpec, seed uint64) (discoverSetup, error) {
	var s discoverSetup
	for _, name := range spec.fabrics {
		t0 := time.Now()
		tp, err := topo.ByName(name)
		if err != nil {
			return s, err
		}
		s.topoBuild += time.Since(t0)
		for _, alg := range spec.algs {
			for _, ch := range spec.changes {
				s.cases = append(s.cases, discoverCase{tp: tp, alg: alg, change: ch, absent: spec.absent})
			}
		}
		warm := s.cases[len(s.cases)-1]
		if _, err := discover(warm, seed, nil); err != nil {
			return s, fmt.Errorf("warm-up discovery of %q: %w", name, err)
		}
	}
	return s, nil
}

func runDiscover(w *workload, spec discoverSpec, o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// Cycle c of a run uses seed base+c for every case, so -seed 1 sweeps
	// the seeds 1, 2, 3, ... that asibench would.
	base := (o.seed-1)*1000 + 1

	var setup discoverSetup
	var setupS, topoMS []float64
	for i := 0; i < w.setups; i++ {
		t0 := time.Now()
		s, err := setupDiscover(spec, base)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		topoMS = append(topoMS, ms(s.topoBuild))
		setup = s
	}
	cases := setup.cases

	var (
		lat      opLatencies
		all      discoverStats // summed over the whole timed section
		tracedEv uint64        // events of the cycles the recorder was on for
		chainH   uint64        = fnvOffset
		// simByCase sums each case's simulated duration over the cycles
		// run, for the ordering check and the per-algorithm metrics.
		simByCase = make([]sim.Duration, len(cases))
		failedBy  = map[string]int{} // failed runs by fabric
		runsBy    = map[string]int{}
	)
	cyc := cycleStats{opsEach: len(cases)}
	var plainCycleS, tracedCycleS []float64 // traced run: cycle walls, recorder off and on
	sec := beginSection()
	cycles := 0
	for {
		// A traced run records every other cycle, so the two kinds of
		// cycle see the same host and their difference is the recorder.
		tr.enable(o.trace && cycles%2 == 1)
		seed := base + uint64(cycles)
		before := all
		for i, c := range cases {
			tr.setOp(int64(len(lat.ms)))
			tr.begin("op")
			st, err := discover(c, seed, tr)
			tr.end()
			lat.add(st.wall, err == nil)
			runsBy[c.tp.Name]++
			if err != nil {
				failedBy[c.tp.Name]++
				out.problem("%s %s %v seed %d: %v", c.tp.Name, c.alg.Slug(), c.change, seed, err)
			}
			all.add(st)
			simByCase[i] += st.simTime
			if cycles < spec.prefixCycles {
				chainH = chain(chain(chainH, uint64(st.simTime)), st.packets)
			}
		}
		cycles++
		wall := all.wall - before.wall
		cyc.add(wall, ms(wall)/float64(len(cases)), all.events-before.events)
		if tr.active() {
			tracedCycleS = append(tracedCycleS, wall.Seconds())
			tracedEv += all.events - before.events
		} else {
			plainCycleS = append(plainCycleS, wall.Seconds())
		}
		if ops := len(lat.ms); cycles == spec.prefixCycles {
			out.golden = goldenRec{
				Ops: ops, Runs: all.runs, Packets: all.packets, Reseeds: all.reseeds, Chain: chainHex(chainH),
				SimMS: map[string]float64{"sim_ms_per_op": simMS(all.simTime) / float64(ops)},
			}
			for alg, v := range orderMetrics(spec, cases, simByCase, cycles) {
				out.golden.SimMS[alg] = v
			}
		}
		if cycles >= spec.prefixCycles && (!o.trace || cycles%2 == 0) && time.Since(sec.start).Seconds() >= o.seconds {
			break
		}
	}
	tot := sec.end()

	// The paper's ordering, Parallel <= Serial Device <= Serial Packet, on
	// each fabric's mean simulated discovery time over the seeds run. A
	// violation fails every run of that fabric.
	for _, v := range orderViolations(spec, cases, simByCase) {
		out.problem("paper ordering violated: %s", v.detail)
		failedBy[v.fabric] = runsBy[v.fabric]
	}
	ops := float64(len(lat.ms))
	out.attempted = len(lat.ms)
	for _, n := range failedBy {
		out.failed += n
	}

	m["setup_s"] = median(setupS)
	cyc.metrics(m)
	m["alloc_mb_per_op"] = float64(tot.allocBytes) / mib / ops
	m["sim_ms_per_op"] = out.golden.SimMS["sim_ms_per_op"]
	if !o.trace {
		return out, nil
	}

	tailMetrics(m, lat.ms)
	m["failed_share"] = float64(out.failed) / float64(out.attempted)
	m["topo.build_ms"] = median(topoMS)
	for alg, v := range orderMetrics(spec, cases, simByCase, cycles) {
		m[alg] = v
	}
	totals := totalsByName(tr.spans)
	if run := totals["sim.run"]; run != nil && tracedEv > 0 {
		m["sim.ns_per_event"] = float64(run.self) / float64(tracedEv)
	}
	m["sim.events_per_op"] = float64(all.events) / ops
	m["sim.max_pending"] = float64(all.maxPending)
	m["fabric.packets_tx_per_op"] = float64(all.tx) / ops
	m["fabric.drops_per_op"] = float64(all.drops) / ops
	m["fabric.events_per_packet"] = float64(all.events) / float64(all.tx)
	m["core.runs_per_round"] = float64(all.runs) / ops
	m["core.packets_per_run"] = float64(all.packets) / float64(all.runs)
	if all.processed > 0 {
		m["core.fm_us_per_pkt"] = (all.fmBusy / sim.Duration(all.processed)).Microseconds()
	}
	if plain := median(plainCycleS); plain > 0 && len(tracedCycleS) > 0 {
		m["trace.overhead_share"] = (median(tracedCycleS) - plain) / plain
	}
	runtimeMetrics(m, tot)
	if spec.shardTrial != "" {
		if err := shardTrial(m, spec.shardTrial, base); err != nil {
			out.problem("sharded trial: %v", err)
		}
	}
	if err := tr.write(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return out, nil
}

func simMS(d sim.Duration) float64 { return d.Seconds() * 1e3 }

// algMetric names the simulated discovery time metric of one algorithm.
func algMetric(k core.Kind) string {
	switch k {
	case core.SerialPacket:
		return "sim_discovery_ms_serial_packet"
	case core.SerialDevice:
		return "sim_discovery_ms_serial_device"
	default:
		return "sim_discovery_ms_parallel"
	}
}

// orderMetrics returns the mean simulated discovery time per algorithm:
// of the order fabric's remove-switch rows where the workload names one,
// otherwise of every run of the algorithm.
func orderMetrics(spec discoverSpec, cases []discoverCase, simByCase []sim.Duration, cycles int) map[string]float64 {
	sum, n := map[string]sim.Duration{}, map[string]int{}
	for i, c := range cases {
		if spec.orderFabric != "" && (c.tp.Name != spec.orderFabric || c.change != removeSwitch) {
			continue
		}
		sum[algMetric(c.alg)] += simByCase[i]
		n[algMetric(c.alg)] += cycles
	}
	out := map[string]float64{}
	for name, s := range sum {
		out[name] = simMS(s) / float64(n[name])
	}
	return out
}

type orderViolation struct{ fabric, detail string }

// orderViolations checks Parallel <= Serial Device <= Serial Packet for
// every (fabric, change) whose cases cover all three algorithms.
func orderViolations(spec discoverSpec, cases []discoverCase, simByCase []sim.Duration) []orderViolation {
	type key struct {
		fabric string
		ch     change
	}
	byAlg := map[key]map[core.Kind]sim.Duration{}
	for i, c := range cases {
		k := key{c.tp.Name, c.change}
		if byAlg[k] == nil {
			byAlg[k] = map[core.Kind]sim.Duration{}
		}
		byAlg[k][c.alg] += simByCase[i]
	}
	var out []orderViolation
	for _, c := range cases { // case order keeps the report stable
		k := key{c.tp.Name, c.change}
		a, ok := byAlg[k]
		if !ok || len(a) < 3 {
			continue
		}
		delete(byAlg, k)
		p, sd, sp := a[core.Parallel], a[core.SerialDevice], a[core.SerialPacket]
		if p > sd || sd > sp {
			out = append(out, orderViolation{c.tp.Name, fmt.Sprintf("%s %v: parallel %v, serial-device %v, serial-packet %v (sums over seeds)",
				c.tp.Name, c.change, p, sd, sp)})
		}
	}
	return out
}

// tailMetrics reports the operation latency's 95th percentile with the
// sample count it rests on, and the highest percentile that count
// supports with at least ten samples beyond it.
func tailMetrics(m map[string]float64, latMS []float64) {
	s := sortedCopy(latMS)
	q := supportedTail(len(s))
	m["op_wall_n"] = float64(len(s))
	m["op_wall_ms_p95"] = percentile(s, 0.95)
	m["op_wall_tail_pct"] = q * 100
	m["op_wall_ms_tail"] = percentile(s, q)
}

// shardTrial times cold Parallel discovery of one fabric on the
// sequential engine and on the region-sharded path with two regions,
// three runs each: ROADMAP's trial of whether sharding beats sequential
// wall-clock on this host.
func shardTrial(m map[string]float64, name string, seed uint64) error {
	tp, err := topo.ByName(name)
	if err != nil {
		return err
	}
	var seqS, shardS []float64
	var rounds, stalls, cross uint64
	for i := 0; i < 3; i++ {
		st, err := discover(discoverCase{tp: tp, alg: core.Parallel}, seed, nil)
		if err != nil {
			return err
		}
		seqS = append(seqS, st.wall.Seconds())

		t0 := time.Now()
		part, err := tp.Partition(2, tp.Endpoints()[0])
		if err != nil {
			return err
		}
		g := sim.NewShardGroup(part.Count, 0)
		g.SeedRNGs(sim.NewRNG(seed*2654435761 + 2))
		f, err := fabric.NewSharded(g, part, tp, fabric.Config{}, rngFor(seed))
		if err != nil {
			return err
		}
		mgr := core.NewManager(f, f.Device(tp.Endpoints()[0]), core.Options{Algorithm: core.Parallel})
		devices := 0
		mgr.OnDiscoveryComplete = func(r core.Result) { devices = r.Devices }
		mgr.StartDiscovery()
		g.Run()
		shardS = append(shardS, time.Since(t0).Seconds())
		if devices != len(tp.Nodes) {
			return fmt.Errorf("sharded discovery of %q found %d of %d devices", name, devices, len(tp.Nodes))
		}
		rounds, stalls, cross = g.Rounds, g.Stalls, g.Cross
	}
	if s := median(shardS); s > 0 && !math.IsNaN(s) {
		m["sim.shard.wall_ratio_r2"] = median(seqS) / s
	}
	m["sim.shard.rounds"] = float64(rounds)
	m["sim.shard.stalls"] = float64(stalls)
	m["sim.shard.cross_msgs"] = float64(cross)
	return nil
}
