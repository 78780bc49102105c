package core

import (
	"testing"

	"repro/internal/asi"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestEventRoutesActuallyWork(t *testing.T) {
	// After distribution, every device must be able to deliver a PI-5
	// to the FM — the property the whole change-detection chain rests on.
	tp := topo.Torus(4, 4)
	e, f, m := setup(t, tp, Parallel)
	runDiscovery(t, e, m)
	m.DistributeEventRoutes(func(d DistResult) {
		if d.Failures != 0 {
			t.Fatalf("distribution failures: %d", d.Failures)
		}
	})
	e.Run()

	// Bypass the manager: count raw PI-5 deliveries at the FM endpoint.
	received := map[asi.DSN]bool{}
	m.Device().SetHandler(fabric.HandlerFunc(func(port int, pkt *asi.Packet) {
		if ev, ok := pkt.Payload.(asi.PI5); ok {
			received[ev.Reporter] = true
		}
	}))
	for _, d := range f.Devices() {
		if d.DSN == m.Device().DSN {
			continue
		}
		d.EmitPI5(asi.PI5PortUp, 0)
	}
	e.Run()
	for _, d := range f.Devices() {
		if d.DSN == m.Device().DSN {
			continue
		}
		if !received[d.DSN] {
			t.Errorf("PI-5 from %s never reached the FM", d.Label)
		}
	}
}

func TestEventRouteForSelfTurnCase(t *testing.T) {
	// A switch whose arrival port equals the virtual ingress needs the
	// maximal self-turn; ensure encoding succeeds and the route works.
	tp := topo.Mesh(3, 3)
	e, f, m := setup(t, tp, Parallel)
	runDiscovery(t, e, m)
	for _, n := range m.DB().Nodes() {
		if n.DSN == m.Device().DSN {
			continue
		}
		if _, _, err := EventRouteFor(n); err != nil {
			t.Errorf("EventRouteFor(%v): %v", n.DSN, err)
		}
	}
	_ = f
}

func TestDistributionAfterChangeStillWorks(t *testing.T) {
	// Rediscover after a removal, redistribute, and confirm reporting
	// still functions — the full maintenance loop.
	tp := topo.Mesh(4, 4)
	e, f, m := setup(t, tp, Parallel)
	runDiscovery(t, e, m)
	m.DistributeEventRoutes(nil)
	e.Run()

	var rediscovered bool
	m.OnDiscoveryComplete = func(Result) { rediscovered = true }
	if err := f.SetDeviceDown(10, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !rediscovered {
		t.Fatal("change assimilation did not run")
	}

	var dist *DistResult
	m.DistributeEventRoutes(func(d DistResult) { dist = &d })
	e.Run()
	if dist == nil {
		t.Fatal("redistribution did not complete")
	}
	if dist.Failures != 0 {
		t.Errorf("redistribution failures: %d", dist.Failures)
	}
	if dist.Writes != m.DB().NumNodes()-1 {
		t.Errorf("wrote %d routes for %d devices", dist.Writes, m.DB().NumNodes())
	}
}

func TestDistributeDuringDiscoveryPanics(t *testing.T) {
	e, _, m := setup(t, topo.Mesh(3, 3), Parallel)
	m.StartDiscovery()
	defer func() {
		if recover() == nil {
			t.Error("distribution during discovery did not panic")
		}
	}()
	m.DistributeEventRoutes(nil)
	e.Run()
}

func TestDistResultTiming(t *testing.T) {
	e, _, m := setup(t, topo.Mesh(3, 3), Parallel)
	runDiscovery(t, e, m)
	var d DistResult
	m.DistributeEventRoutes(func(r DistResult) { d = r })
	e.Run()
	if d.Duration <= 0 {
		t.Errorf("distribution duration = %v", d.Duration)
	}
	if d.BytesSent == 0 {
		t.Error("no bytes accounted")
	}
	if d.End.Sub(d.Start) != d.Duration {
		t.Error("duration inconsistent")
	}
	_ = sim.Time(0)
}
