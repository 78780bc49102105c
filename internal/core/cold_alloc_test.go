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
	const budget = 2_544_000 // measured 2 423 016 B; 3 391 344 B with the five rows above
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
	if bytes > budget {
		t.Errorf("a cold Parallel discovery of %s allocates %d B, budget %d", tp.Name, bytes, budget)
	}
}
