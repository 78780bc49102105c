package telemetry_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// daemonRegistry returns the registry of an 8x8 torus under coalesced
// Partial assimilation, bootstrapped and with one switch toggled down and
// back: the metrics a running daemon freezes on every scrape.
func daemonRegistry(tb testing.TB) *telemetry.Registry {
	tb.Helper()
	tp, err := topo.ByName("8x8 torus")
	if err != nil {
		tb.Fatal(err)
	}
	r, err := rig.New(tp, rig.Config{Seed: 1, Telemetry: true,
		Manager: core.Options{Algorithm: core.Partial, AssimWindow: 200 * sim.Microsecond}})
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		tb.Fatal(err)
	}
	sw := r.Fabric.RandomSwitch(r.RNG)
	for _, down := range []bool{true, false} {
		if err := r.Toggle(sw, down); err != nil {
			tb.Fatal(err)
		}
		r.Run()
	}
	r.Snapshot() // publish the totals kept outside the registry
	return r.Registry
}

var sinkSnap telemetry.Snapshot

// TestRegistrySnapshotAllocBudget pins a snapshot's allocations: one per
// non-empty section, each sized once, plus one bucket-count copy per
// histogram (bounds are shared with the registry).
func TestRegistrySnapshotAllocBudget(t *testing.T) {
	reg := daemonRegistry(t)
	s := reg.Snapshot()
	want := len(s.Histograms)
	for _, n := range []int{len(s.Counters), len(s.Gauges), len(s.Vectors), len(s.Histograms)} {
		if n > 0 {
			want++
		}
	}
	if len(s.Vectors) == 0 || len(s.Histograms) == 0 {
		t.Fatalf("the daemon registry snapshots %d vector slots and %d histograms: too small to pin anything", len(s.Vectors), len(s.Histograms))
	}
	if allocs := testing.AllocsPerRun(50, func() { sinkSnap = reg.Snapshot() }); allocs > float64(want) {
		t.Errorf("Registry.Snapshot allocates %.1f per run, want <= %d", allocs, want)
	}
	empty := telemetry.New()
	if allocs := testing.AllocsPerRun(50, func() { sinkSnap = empty.Snapshot() }); allocs != 0 {
		t.Errorf("an empty registry's snapshot allocates %.1f per run, want 0", allocs)
	}
}

// BenchmarkRegistrySnapshot is one scrape's freeze of a daemon-sized
// registry.
func BenchmarkRegistrySnapshot(b *testing.B) {
	reg := daemonRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSnap = reg.Snapshot()
	}
}
