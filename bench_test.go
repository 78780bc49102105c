package repro

// Repository-level benchmarks: one per table/figure of the paper's
// evaluation, plus an ablation of a design choice called out in
// DESIGN.md. Each benchmark iteration executes complete simulation runs;
// besides wall-clock ns/op, the benchmarks report the *simulated*
// quantities the paper plots (discovery seconds, packets) via
// b.ReportMetric, so `go test -bench` output doubles as a coarse
// reproduction check.

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// BenchmarkTable1Topologies regenerates Table 1: building and validating
// every evaluated topology.
func BenchmarkTable1Topologies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range topo.Table1() {
			tp := s.Build()
			if err := tp.Validate(); err != nil {
				b.Fatal(err)
			}
			if tp.NumSwitches() != s.Switches || tp.NumEndpoints() != s.Endpoints {
				b.Fatalf("%s: counts drifted from Table 1", s.Name)
			}
		}
	}
}

// benchEvents accumulates Engine.Processed across discoverOnce calls so
// benchmarks can report simulator throughput (events/s). Sub-benchmarks
// run sequentially, so a plain counter suffices.
var benchEvents uint64

// reportEventsPerSec converts an event tally gathered during the timed
// section into an events/s metric. Call after StopTimer.
func reportEventsPerSec(b *testing.B, events uint64) {
	if s := b.Elapsed().Seconds(); s > 0 && events > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
}

// discoverOnce runs one full discovery and returns its result.
func discoverOnce(b *testing.B, topoName string, opt core.Options, devFactor float64) core.Result {
	b.Helper()
	tp, err := topo.ByName(topoName)
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{DeviceFactor: devFactor}, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	m := core.NewManager(f, f.Device(tp.Endpoints()[0]), opt)
	var res core.Result
	m.OnDiscoveryComplete = func(r core.Result) { res = r }
	m.StartDiscovery()
	e.Run()
	benchEvents += e.Processed
	if res.Devices != len(tp.Nodes) {
		b.Fatalf("%s: discovered %d of %d devices", topoName, res.Devices, len(tp.Nodes))
	}
	return res
}

// BenchmarkFig4ProcessingTime regenerates Fig. 4's metric: the average FM
// processing time per PI-4 packet, per algorithm.
func BenchmarkFig4ProcessingTime(b *testing.B) {
	for _, kind := range core.PaperKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			benchEvents = 0
			var avgUS float64
			for i := 0; i < b.N; i++ {
				res := discoverOnce(b, "6x6 mesh", core.Options{Algorithm: kind}, 1)
				avgUS = res.AvgFMProcessing().Microseconds()
			}
			b.StopTimer()
			b.ReportMetric(avgUS, "fm-us/pkt")
			reportEventsPerSec(b, benchEvents)
		})
	}
}

// BenchmarkFig6DiscoveryTime regenerates Fig. 6's metric: discovery time
// after a random switch removal, per algorithm.
func BenchmarkFig6DiscoveryTime(b *testing.B) {
	for _, kind := range core.PaperKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			var secs, pkts float64
			for i := 0; i < b.N; i++ {
				o := experiment.RunConfig(experiment.Config{
					Topology: "6x6 mesh", Algorithm: kind,
					Seed: uint64(i%4 + 1), Change: experiment.RemoveSwitch,
				})
				if o.Err != nil {
					b.Fatal(o.Err)
				}
				secs = o.Result.Duration.Seconds()
				pkts = float64(o.Result.PacketsSent)
			}
			b.ReportMetric(secs, "sim-s/run")
			b.ReportMetric(pkts, "pkts/run")
		})
	}
}

// BenchmarkFig7Timeline regenerates Fig. 7(a): the full FM processing
// timeline on the 3x3 mesh.
func BenchmarkFig7Timeline(b *testing.B) {
	for _, kind := range core.PaperKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			benchEvents = 0
			var last float64
			for i := 0; i < b.N; i++ {
				res := discoverOnce(b, "3x3 mesh", core.Options{Algorithm: kind}, 1)
				if len(res.Timeline) == 0 {
					b.Fatal("no timeline")
				}
				last = res.Timeline[len(res.Timeline)-1].Seconds()
			}
			b.StopTimer()
			b.ReportMetric(last, "sim-s/last-pkt")
			reportEventsPerSec(b, benchEvents)
		})
	}
}

// BenchmarkFig8Factors regenerates Fig. 8's extremes: the 8x8 mesh at the
// default factors and at the paper's fast-FM/slow-device corner.
func BenchmarkFig8Factors(b *testing.B) {
	cases := []struct {
		name      string
		fmF, devF float64
	}{
		{"fm1-dev1", 1, 1},
		{"fm4-dev1", 4, 1},
		{"fm1-dev0.2", 1, 0.2},
	}
	for _, c := range cases {
		for _, kind := range core.PaperKinds() {
			b.Run(c.name+"/"+kind.String(), func(b *testing.B) {
				b.ReportAllocs()
				benchEvents = 0
				var secs float64
				for i := 0; i < b.N; i++ {
					res := discoverOnce(b, "8x8 mesh",
						core.Options{Algorithm: kind, FMFactor: c.fmF}, c.devF)
					secs = res.Duration.Seconds()
				}
				b.StopTimer()
				b.ReportMetric(secs, "sim-s/run")
				reportEventsPerSec(b, benchEvents)
			})
		}
	}
}

// BenchmarkFig9FactorCombos regenerates Fig. 9's metric: change
// assimilation at the three factor combinations, Parallel vs Serial
// Packet on a representative topology.
func BenchmarkFig9FactorCombos(b *testing.B) {
	combos := []struct {
		name      string
		fmF, devF float64
	}{
		{"a-fm1-dev1", 1, 1},
		{"b-fm1-dev0.2", 1, 0.2},
		{"c-fm4-dev0.2", 4, 0.2},
	}
	for _, c := range combos {
		for _, kind := range []core.Kind{core.SerialPacket, core.Parallel} {
			b.Run(c.name+"/"+kind.String(), func(b *testing.B) {
				b.ReportAllocs()
				var secs float64
				for i := 0; i < b.N; i++ {
					o := experiment.RunConfig(experiment.Config{
						Topology: "6x6 torus", Algorithm: kind,
						Seed: 1, Change: experiment.RemoveSwitch,
						FMFactor: c.fmF, DeviceFactor: c.devF,
					})
					if o.Err != nil {
						b.Fatal(o.Err)
					}
					secs = o.Result.Duration.Seconds()
				}
				b.ReportMetric(secs, "sim-s/run")
			})
		}
	}
}

// BenchmarkExtensions regenerates the future-work experiments: partial
// assimilation and distributed discovery.
func BenchmarkExtensions(b *testing.B) {
	b.Run("partial-remove", func(b *testing.B) {
		var pkts float64
		for i := 0; i < b.N; i++ {
			o := experiment.RunConfig(experiment.Config{
				Topology: "6x6 mesh", Algorithm: core.Partial,
				Seed: 1, Change: experiment.RemoveSwitch,
			})
			if o.Err != nil {
				b.Fatal(o.Err)
			}
			pkts = float64(o.Result.PacketsSent)
		}
		b.ReportMetric(pkts, "pkts/run")
	})
	b.Run("traffic-loaded-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tp := topo.Mesh(4, 4)
			e := sim.NewEngine()
			rng := sim.NewRNG(uint64(i + 1))
			f, err := fabric.New(e, tp, fabric.Config{}, rng)
			if err != nil {
				b.Fatal(err)
			}
			gen := fabric.NewTrafficGen(f, rng.Split(), 5*sim.Microsecond, 1024)
			gen.Start()
			m := core.NewManager(f, f.Device(tp.Endpoints()[0]), core.Options{Algorithm: core.Parallel})
			done := false
			m.OnDiscoveryComplete = func(core.Result) { done = true }
			m.StartDiscovery()
			for !done && e.Step() {
			}
			gen.Stop()
			if !done {
				b.Fatal("discovery starved by traffic")
			}
		}
	})
}

// BenchmarkScaleDiscovery measures full discovery on fabrics far beyond
// Table 1: hundreds to a thousand switches from the extended generator
// families (grids are absent — turn-pool path depth keeps them near
// Table 1 sizes; see scaleRows). Sizes are kept at the small end of the ext-scale
// experiment so `make bench` stays minutes, not hours; run `asibench
// -exp ext-scale` for the 5k/10k-switch rows.
func BenchmarkScaleDiscovery(b *testing.B) {
	for _, name := range []string{
		"8-port 3-tree",
		"dragonfly 8x32",
		"dragonfly 16x64",
		"autofat 128x4096",
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			benchEvents = 0
			var secs float64
			for i := 0; i < b.N; i++ {
				res := discoverOnce(b, name, core.Options{Algorithm: core.Parallel}, 1)
				secs = res.Duration.Seconds()
			}
			b.StopTimer()
			b.ReportMetric(secs, "sim-s/run")
			reportEventsPerSec(b, benchEvents)
		})
	}
}

// scaleFabrics are the fabrics of the allocation ledger: the daemon's
// default torus and the two stress fabrics of the repo benchmark's
// discover-scale workload.
var scaleFabrics = []string{"8x8 torus", "dragonfly 16x64", "autofat 128x4096"}

// BenchmarkFabricBuild measures instantiating a fabric on a prebuilt
// topology — the construction share of a cold discovery.
func BenchmarkFabricBuild(b *testing.B) {
	for _, name := range scaleFabrics {
		b.Run(name, func(b *testing.B) {
			tp, err := topo.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fabric.New(sim.NewEngine(), tp, fabric.Config{}, sim.NewRNG(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiscoveryOp measures the repo benchmark's discover-scale
// operation on a prebuilt topology: fabric.New, NewManager, four seeded
// switches quietly absent, one cold Parallel discovery, CheckConverged.
// B/op here is what bench/run.sh reports as alloc_mb_per_op.
func BenchmarkDiscoveryOp(b *testing.B) {
	for _, name := range scaleFabrics {
		b.Run(name, func(b *testing.B) {
			tp, err := topo.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine()
				rng := sim.NewRNG(uint64(i%4 + 1))
				f, err := fabric.New(e, tp, fabric.Config{}, rng)
				if err != nil {
					b.Fatal(err)
				}
				ep := f.Device(tp.Endpoints()[0])
				m := core.NewManager(f, ep, core.Options{Algorithm: core.Parallel})
				hostSwitch, _, _ := tp.Peer(ep.ID, 0)
				for k := 0; k < 4; k++ {
					if id := f.RandomSwitch(rng); id != hostSwitch && f.Alive(id) {
						if err := f.SetDeviceDown(id, true); err != nil {
							b.Fatal(err)
						}
					}
				}
				var res core.Result
				m.OnDiscoveryComplete = func(r core.Result) { res = r }
				m.StartDiscovery()
				e.Run()
				events += e.Processed
				if err := chaos.CheckConverged(f, m, res); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportEventsPerSec(b, events)
		})
	}
}

// BenchmarkAblationExplorationOrder measures design choice 3 from
// DESIGN.md: the breadth-first exploration queue (serial algorithms) vs
// the unordered pending table (parallel) on equal footing.
func BenchmarkAblationExplorationOrder(b *testing.B) {
	for _, kind := range core.PaperKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				res := discoverOnce(b, "8x8 torus", core.Options{Algorithm: kind}, 1)
				secs = res.Duration.Seconds()
			}
			b.ReportMetric(secs, "sim-s/run")
		})
	}
}
