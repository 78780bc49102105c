package core_test

import (
	"runtime"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/topo"
)

// TestColdDiscoveryAllocBudget bounds what one cold Parallel discovery
// allocates end to end — fabric, manager, the discovery itself and the
// oracle's check — so that an allocation row the repo benchmark's
// discover-scale workload no longer pays (idle VC rings in every link
// record, a second copy of the FM's link set, wide request records, a
// timeline regrown point by point, a map-keyed port table) fails here
// rather than only in a benchmark someone has to rerun.
func TestColdDiscoveryAllocBudget(t *testing.T) {
	// Measured 1 884 888 B: 1 935 592 B with a node map and an adjacency
	// map per database and a heap record per node, 2 212 176 B with 24-byte
	// hops and neighbours, 152-byte nodes and a path built per probe as
	// well, 3 391 344 B with the five rows above too.
	const budget = 1_979_100
	tp, err := topo.ByName("dragonfly 8x32")
	if err != nil {
		t.Fatal(err)
	}
	bytes := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ { // minimum of five: other goroutines only add
		runtime.ReadMemStats(&before)
		r, err := rig.New(tp, rig.Config{Seed: 1, Manager: core.Options{Algorithm: core.Parallel}})
		if err != nil {
			t.Fatal(err)
		}
		var res core.Result
		r.Manager.OnDiscoveryComplete = func(got core.Result) { res = got }
		r.Manager.StartDiscovery()
		r.Run()
		if err := chaos.CheckConverged(r.Fabric, r.Manager, res); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a cold Parallel discovery of %s allocates %d B", tp.Name, bytes)
	if bytes > budget {
		t.Errorf("a cold Parallel discovery of %s allocates %d B, budget %d", tp.Name, bytes, budget)
	}
}

// TestRediscoveryAllocBudget bounds what one full Parallel rediscovery of
// the 8x8 torus allocates once the rig is warm: the repo benchmark's
// churn-serve workload runs one per change, and the fresh database is most
// of it. A record that widens again (a hop, a neighbour, a node), or a
// probe that builds its path before it knows it found a device, fails
// here with the number.
func TestRediscoveryAllocBudget(t *testing.T) {
	// Measured 51 232 B: 61 488 B with a fresh node map and adjacency map
	// per rediscovery and a heap record per node, 95 984 B with 24-byte
	// hops and neighbours, 152-byte nodes and a path built per probe as
	// well.
	const budget = 53_790
	tp, err := topo.ByName("8x8 torus")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rig.New(tp, rig.Config{Seed: 1, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	r.Manager.OnDiscoveryComplete = func(got core.Result) { res = got }
	rediscover := func() {
		r.Manager.StartDiscovery()
		r.Run()
	}
	rediscover() // cold: the rig's first database, its request pool and packets
	bytes := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ { // minimum of five: other goroutines only add
		runtime.ReadMemStats(&before)
		rediscover()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if err := chaos.CheckConverged(r.Fabric, r.Manager, res); err != nil {
		t.Fatal(err)
	}
	t.Logf("a full Parallel rediscovery of %s allocates %d B", tp.Name, bytes)
	if bytes > budget {
		t.Errorf("a full Parallel rediscovery of %s allocates %d B, budget %d", tp.Name, bytes, budget)
	}
}
