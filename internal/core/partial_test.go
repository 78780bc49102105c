package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// partialSetup boots a fabric, runs the initial full discovery under the
// Partial manager, and programs event routes so devices can report.
func partialSetup(t *testing.T, tp *topo.Topology) (*sim.Engine, *fabric.Fabric, *Manager) {
	t.Helper()
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(f, f.Device(tp.Endpoints()[0]), Options{Algorithm: Partial})
	runDiscovery(t, e, m)
	m.DistributeEventRoutes(func(d DistResult) {
		if d.Failures != 0 {
			t.Fatalf("event-route distribution failures: %d", d.Failures)
		}
	})
	e.Run()
	return e, f, m
}

// dbMatchesFabric checks the database against the live fabric.
func dbMatchesFabric(t *testing.T, f *fabric.Fabric, m *Manager, context string) {
	t.Helper()
	wantDev, wantLinks := f.AliveReachable(m.Device().ID)
	if m.DB().NumNodes() != wantDev {
		t.Errorf("%s: database has %d devices, fabric has %d", context, m.DB().NumNodes(), wantDev)
	}
	if m.DB().NumLinks() != wantLinks {
		t.Errorf("%s: database has %d links, fabric has %d", context, m.DB().NumLinks(), wantLinks)
	}
}

func TestPartialAssimilatesCornerRemoval(t *testing.T) {
	e, f, m := partialSetup(t, topo.Mesh(3, 3))
	var results []Result
	m.OnDiscoveryComplete = func(r Result) { results = append(results, r) }

	if err := f.SetDeviceDown(8, false); err != nil { // sw(2,2), corner
		t.Fatal(err)
	}
	e.Run()

	dbMatchesFabric(t, f, m, "after corner removal")
	// The corner switch and its endpoint must be gone.
	if m.DB().NumNodes() != 16 {
		t.Errorf("database has %d devices, want 16", m.DB().NumNodes())
	}
	if len(results) == 0 {
		t.Error("partial assimilation produced no result")
	}
}

func TestPartialAssimilatesCentreRemovalWithReroutes(t *testing.T) {
	e, f, m := partialSetup(t, topo.Mesh(3, 3))
	if err := f.SetDeviceDown(4, false); err != nil { // sw(1,1): paths through it must reroute
		t.Fatal(err)
	}
	e.Run()
	dbMatchesFabric(t, f, m, "after centre removal")
	// Every surviving device's stored path must still be BFS-reachable.
	for _, n := range m.DB().Nodes() {
		if n.DSN == m.Device().DSN {
			continue
		}
		if p, _ := m.DB().PathTo(n.DSN); p == nil {
			t.Errorf("device %v unreachable in repaired database", n.DSN)
		}
	}
}

func TestPartialAssimilatesAddition(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Boot with a corner switch down.
	if err := f.SetDeviceDown(8, true); err != nil {
		t.Fatal(err)
	}
	m := NewManager(f, f.Device(tp.Endpoints()[0]), Options{Algorithm: Partial})
	runDiscovery(t, e, m)
	m.DistributeEventRoutes(nil)
	e.Run()
	if m.DB().NumNodes() != 16 {
		t.Fatalf("baseline has %d devices", m.DB().NumNodes())
	}

	if err := f.SetDeviceUp(8, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	dbMatchesFabric(t, f, m, "after addition")
	if m.DB().NumNodes() != 18 {
		t.Errorf("database has %d devices after addition, want 18", m.DB().NumNodes())
	}
}

func TestPartialCheaperThanFullRediscovery(t *testing.T) {
	// The point of the extension: assimilating a local change costs far
	// fewer packets than a full rediscovery.
	fullPackets := func() uint64 {
		tp := topo.Mesh(6, 6)
		e, f, m := setup(t, tp, Parallel)
		runDiscovery(t, e, m)
		m.DistributeEventRoutes(nil)
		e.Run()
		var res *Result
		m.OnDiscoveryComplete = func(r Result) { res = &r }
		if err := f.SetDeviceDown(35, false); err != nil { // corner sw(5,5)
			t.Fatal(err)
		}
		e.Run()
		if res == nil {
			t.Fatal("full rediscovery did not run")
		}
		return res.PacketsSent
	}()

	partialPackets := func() uint64 {
		e, f, m := partialSetup(t, topo.Mesh(6, 6))
		var res *Result
		m.OnDiscoveryComplete = func(r Result) { res = &r }
		if err := f.SetDeviceDown(35, false); err != nil {
			t.Fatal(err)
		}
		e.Run()
		if res == nil {
			t.Fatal("partial assimilation did not run")
		}
		return res.PacketsSent
	}()

	if partialPackets*5 > fullPackets {
		t.Errorf("partial used %d packets vs full %d — expected at least 5x saving",
			partialPackets, fullPackets)
	}
}

func TestPartialStaleSequenceIgnored(t *testing.T) {
	e, f, m := partialSetup(t, topo.Mesh(3, 3))
	if err := f.SetDeviceDown(8, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	before := m.DB().NumNodes()
	// Replay the same event sequence numbers: nothing should change.
	runs := 0
	m.OnDiscoveryComplete = func(Result) { runs++ }
	for _, d := range f.Devices() {
		_ = d
	}
	e.Run()
	if m.DB().NumNodes() != before || runs != 0 {
		t.Errorf("stale events changed state: %d devices, %d runs", m.DB().NumNodes(), runs)
	}
}

func TestPartialFallsBackToFullWithoutBaseline(t *testing.T) {
	// A Partial manager that never ran a discovery must fall back to a
	// full run when the first event arrives.
	tp := topo.Mesh(3, 3)
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(f, f.Device(tp.Endpoints()[0]), Options{Algorithm: Partial})
	// Hand-program one switch's event route so it can report without
	// prior discovery.
	runDiscovery(t, e, m) // bootstrap: discover
	m.DistributeEventRoutes(nil)
	e.Run()
	// Wipe the manager's database to simulate a cold standby taking over.
	m.db = NewDB(m.dev.DSN)
	m.partialSeq = nil
	var res *Result
	m.OnDiscoveryComplete = func(r Result) { res = &r }
	if err := f.SetDeviceDown(4, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if res == nil {
		t.Fatal("no fallback discovery ran")
	}
	dbMatchesFabric(t, f, m, "after fallback full discovery")
}

// TestRefreshPathsCopiesChangedRoutes checks that the repair pass leaves
// every device holding its own copy of its new route, and every
// verification read in flight the route of the device it verifies,
// although the pass computes all routes in one reused buffer: a cut next
// to the host reroutes dozens of devices, then restoring it reroutes them
// back.
func TestRefreshPathsCopiesChangedRoutes(t *testing.T) {
	tp, err := topo.ByName("8x8 torus")
	if err != nil {
		t.Fatal(err)
	}
	e, _, m := setup(t, tp, Partial)
	runDiscovery(t, e, m)
	cut := linkNearHost(m.db)
	for step, mutate := range []func(Link){m.db.RemoveLink, m.db.AddLink, m.db.RemoveLink} {
		m.beginPartialRun()
		mutate(cut)
		sent := m.res.PacketsSent
		m.refreshPaths()
		if step > 0 && m.res.PacketsSent-sent < 8 {
			t.Fatalf("step %d rerouted %d devices; the check needs several", step, m.res.PacketsSent-sent)
		}
		tree := m.db.TreeFrom(m.db.HostDSN)
		for _, n := range m.db.Nodes() {
			want, arrive := tree.PathTo(n.DSN)
			if !pathEqual(n.Path, want) || (n.DSN != m.db.HostDSN && n.ArrivalPort != arrive) {
				t.Fatalf("step %d: %v holds route %v (arrival %d), want %v (arrival %d)", step, n.DSN, n.Path, n.ArrivalPort, want, arrive)
			}
		}
		for _, req := range m.pending {
			if n := m.db.Node(req.dsn); req.kind == reqVerify && !pathEqual(req.path, n.Path) {
				t.Fatalf("step %d: the verify of %v travels %v, the device's route is %v", step, req.dsn, req.path, n.Path)
			}
		}
		e.Run()
	}
}
