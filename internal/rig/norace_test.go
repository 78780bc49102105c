//go:build !race

package rig_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/topo"
)

// TestBootstrapPastTheDistributionQueue bootstraps dragonfly 16x950 (30 400
// devices): its event-route round of 30 399 writes drains through the
// round's window with no failure. Issued all at once, 662 of them timed
// out while still queued on the FM's own link. It takes about 6 s, so the
// race detector's slowdown leaves it out.
func TestBootstrapPastTheDistributionQueue(t *testing.T) {
	tp, err := topo.ParseName("dragonfly 16x950")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rig.New(tp, rig.Config{Seed: 1, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
}
