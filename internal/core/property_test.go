// Property tests live in package core_test (not core) so they can use
// the chaos harness's exported oracle: chaos imports core, so an
// internal test file could not import chaos back without a cycle.
package core_test

import (
	"testing"
	"testing/quick"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The central correctness property of the whole system: over arbitrary
// connected topologies, every discovery algorithm reconstructs exactly
// the alive reachable fabric — same devices, same links — regardless of
// cycles, parallel links, or irregular degree. The ground-truth
// comparison itself is chaos.CheckConverged, shared with the chaos
// harness's executor so there is exactly one definition of "correct".

func discoveryMatchesFabric(t *testing.T, tp *topo.Topology, kind core.Kind) bool {
	t.Helper()
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(99))
	if err != nil {
		return false
	}
	m := core.NewManager(f, f.Device(tp.Endpoints()[0]), core.Options{Algorithm: kind})
	done := false
	var res core.Result
	m.OnDiscoveryComplete = func(r core.Result) { res, done = r, true }
	m.StartDiscovery()
	e.Run()
	if !done {
		t.Logf("%s/%v: discovery hung", tp.Name, kind)
		return false
	}
	if err := chaos.CheckConverged(f, m, res); err != nil {
		t.Logf("%s/%v: %v", tp.Name, kind, err)
		return false
	}
	return true
}

func TestDiscoveryCorrectOnRandomTopologies(t *testing.T) {
	f := func(seed uint64, n, extra uint8) bool {
		nsw := int(n%18) + 2
		tp := topo.Random(nsw, int(extra%24), sim.NewRNG(seed))
		for _, kind := range core.PaperKinds() {
			if !discoveryMatchesFabric(t, tp, kind) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAssimilationCorrectOnRandomTopologies(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		nsw := int(n%10) + 3
		tp := topo.Random(nsw, int(seed%8), sim.NewRNG(seed))
		e := sim.NewEngine()
		fab, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		m := core.NewManager(fab, fab.Device(tp.Endpoints()[0]), core.Options{Algorithm: core.Parallel})
		done := 0
		m.OnDiscoveryComplete = func(core.Result) { done++ }
		m.StartDiscovery()
		e.Run()
		if done != 1 {
			return false
		}
		m.DistributeEventRoutes(nil)
		e.Run()
		// Remove a random non-host switch loudly.
		hostSwitch, _, _ := tp.Peer(tp.Endpoints()[0], 0)
		rng := sim.NewRNG(seed + 1)
		var victim topo.NodeID
		for {
			victim = fab.RandomSwitch(rng)
			if victim != hostSwitch {
				break
			}
		}
		if err := fab.SetDeviceDown(victim, false); err != nil {
			return false
		}
		e.Run()
		// Either the change was assimilated (usual case) or every
		// reporter was stranded (possible in sparse random graphs); in
		// the latter case the old DB is legitimately stale and the run
		// is vacuous.
		if done < 2 {
			return true
		}
		wantDev, wantLinks := fab.AliveReachable(m.Device().ID)
		return m.DB().NumNodes() == wantDev && m.DB().NumLinks() == wantLinks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
