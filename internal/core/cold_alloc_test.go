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
// timeline kept by every run, a map-keyed port table) fails here
// rather than only in a benchmark someone has to rerun.
func TestColdDiscoveryAllocBudget(t *testing.T) {
	// Measured 1 564 304 B: 1 774 536 B with a timeline built per run,
	// 1 935 592 B with a node map and an adjacency map per database and a
	// heap record per node as well, 2 212 176 B with 24-byte hops and
	// neighbours, 152-byte nodes and a path built per probe too, 3 391 344 B
	// with the five rows above too.
	coldDiscoveryWithin(t, "dragonfly 8x32", core.Parallel, 1_642_500)
}

// coldDiscoveryWithin fails t when one cold discovery of the named fabric
// under kind, end to end with the oracle's check, allocates more than
// budget bytes, the least of five measurements.
func coldDiscoveryWithin(t *testing.T, name string, kind core.Kind, budget uint64) {
	t.Helper()
	tp, err := topo.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	bytes := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ { // minimum of five: other goroutines only add
		runtime.ReadMemStats(&before)
		r, err := rig.New(tp, rig.Config{Seed: 1, Manager: core.Options{Algorithm: kind}})
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
	t.Logf("a cold %v discovery of %s allocates %d B", kind, name, bytes)
	if bytes > budget {
		t.Errorf("a cold %v discovery of %s allocates %d B, budget %d", kind, name, bytes, budget)
	}
}

// TestRediscoveryAllocBudget bounds what one full Parallel rediscovery of
// the 8x8 torus allocates once the rig is warm: the repo benchmark's
// churn-serve workload runs one per change, and the fresh database is most
// of it. A record that widens again (a hop, a neighbour, a node), or a
// probe that builds its path before it knows it found a device, fails
// here with the number.
func TestRediscoveryAllocBudget(t *testing.T) {
	// Measured 41 000 B: 51 240 B with a timeline built per run, 61 488 B
	// with a fresh node map and adjacency map per rediscovery and a heap
	// record per node as well, 95 984 B with 24-byte hops and neighbours,
	// 152-byte nodes and a path built per probe too.
	const budget = 43_050
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

// TestSerialDiscoveryAllocBudget bounds what one cold Serial Packet and
// one cold Serial Device discovery of the 8x8 mesh allocate end to end,
// the oracle's check included. The serial drivers explore from a queue
// of probes: a queue that regrows as it creeps forward, or a slice of
// probes built per device, fails here with the number.
func TestSerialDiscoveryAllocBudget(t *testing.T) {
	// Measured 160 552 B and 193 920 B: 218 424 B and 250 608 B with a
	// timeline built per run and a slice of probes per device appended to
	// a queue that regrew as it crept forward.
	coldDiscoveryWithin(t, "8x8 mesh", core.SerialPacket, 168_580)
	coldDiscoveryWithin(t, "8x8 mesh", core.SerialDevice, 203_620)
}
