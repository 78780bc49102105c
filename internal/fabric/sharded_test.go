package fabric_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// discovered is what one cold Parallel discovery leaves behind, as far as
// the two simulation paths promise to agree on it.
type discovered struct {
	fingerprint              uint64
	devices, switches, links int
}

func discover(t *testing.T, f *fabric.Fabric, tp *topo.Topology, run func()) discovered {
	t.Helper()
	m := core.NewManager(f, f.Device(tp.Endpoints()[0]), core.Options{Algorithm: core.Parallel})
	var res core.Result
	done := false
	m.OnDiscoveryComplete = func(r core.Result) { res, done = r, true }
	m.StartDiscovery()
	run()
	if !done {
		t.Fatalf("%s: discovery never completed", tp.Name)
	}
	return discovered{m.DB().Fingerprint(), res.Devices, res.Switches, res.Links}
}

// TestShardedDiscoveryMatchesSequential is the referee of the
// region-sharded mechanism, assembled by hand the way the benchmark's
// sharded trial assembles it (no driver selects the path): for every
// generator family, discovery at R in {2, 4, 8} must reconstruct exactly
// the database the sequential run does. Event counts and timing may
// differ — cross-region credit returns ride the wire with the propagation
// delay — so the contract is the database, not the metrics.
func TestShardedDiscoveryMatchesSequential(t *testing.T) {
	const seed = 3
	for _, name := range []string{"6x6 torus", "8-port 3-tree", "dragonfly 4x8", "autofat 16x64"} {
		tp, err := topo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine()
		f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		seq := discover(t, f, tp, func() { e.Run() })
		if seq.devices != len(tp.Nodes) {
			t.Fatalf("%s sequential: found %d of %d devices", name, seq.devices, len(tp.Nodes))
		}
		for _, r := range []int{2, 4, 8} {
			part, err := tp.Partition(r, tp.Endpoints()[0])
			if err != nil {
				t.Fatalf("%s R=%d: %v", name, r, err)
			}
			if part.Count < 2 {
				t.Fatalf("%s R=%d: partition has %d regions", name, r, part.Count)
			}
			g := sim.NewShardGroup(part.Count, 0) // lookahead set by NewSharded
			g.SeedRNGs(sim.NewRNG(seed + 1))
			f, err := fabric.NewSharded(g, part, tp, fabric.Config{}, sim.NewRNG(seed))
			if err != nil {
				t.Fatalf("%s R=%d: %v", name, r, err)
			}
			par := discover(t, f, tp, func() { g.Run() })
			if par != seq {
				t.Errorf("%s R=%d: sharded %+v, sequential %+v", name, r, par, seq)
			}
			if g.Rounds == 0 {
				t.Errorf("%s R=%d: no barrier rounds; the sharded path never engaged", name, r)
			}
		}
	}
}
