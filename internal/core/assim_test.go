package core

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// assimSetup is partialSetup with the coalescing front-end enabled.
func assimSetup(t *testing.T, tp *topo.Topology, opt Options) (*sim.Engine, *fabric.Fabric, *Manager) {
	t.Helper()
	opt.Algorithm = Partial
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(f, f.Device(tp.Endpoints()[0]), opt)
	runDiscovery(t, e, m)
	m.DistributeEventRoutes(func(d DistResult) {
		if d.Failures != 0 {
			t.Fatalf("event-route distribution failures: %d", d.Failures)
		}
	})
	e.Run()
	return e, f, m
}

// flapDevice schedules n down/up cycles of one device: down at base+i*spacing,
// up again outage later. Each transition makes the live neighbours emit
// PI-5 reports (link flaps are silent transients in this model, so churn
// storms are expressed as device toggles).
func flapDevice(t *testing.T, e *sim.Engine, f *fabric.Fabric, id topo.NodeID, n int, spacing, outage sim.Duration) {
	t.Helper()
	base := e.Now().Add(10 * sim.Microsecond)
	for i := 0; i < n; i++ {
		at := base.Add(sim.Duration(i) * spacing)
		e.At(at, func(*sim.Engine) {
			if err := f.SetDeviceDown(id, false); err != nil {
				t.Error(err)
			}
		})
		e.At(at.Add(outage), func(*sim.Engine) {
			if err := f.SetDeviceUp(id, false); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCoalescedStormFewerRuns is the churn-storm microbenchmark behind
// the acceptance criterion: N flaps of one device must cost the
// coalescing front-end at least 5x fewer partial runs than per-event
// assimilation, at equal ground-truth convergence.
func TestCoalescedStormFewerRuns(t *testing.T) {
	const flaps = 10
	storm := func(opt Options) (runs, coalesced int) {
		var e *sim.Engine
		var f *fabric.Fabric
		var m *Manager
		if opt.AssimWindow > 0 {
			e, f, m = assimSetup(t, topo.Mesh(4, 4), opt)
		} else {
			e, f, m = partialSetup(t, topo.Mesh(4, 4))
		}
		m.OnDiscoveryComplete = func(r Result) {
			runs++
			coalesced += r.Coalesced
		}
		// 8ms apart with a 4ms outage: wider than the 5ms request
		// timeout, so per-event assimilation fully settles one localized
		// run per transition, while the 5ms debounce window (longer than
		// the largest inter-report gap) slides across the whole storm.
		// Node 15 is the far-corner switch, away from the host on
		// sw(0,0).
		flapDevice(t, e, f, 15, flaps, 8*sim.Millisecond, 4*sim.Millisecond)
		e.Run()
		dbMatchesFabric(t, f, m, "after storm")
		if m.Discovering() {
			t.Error("manager still discovering after drain")
		}
		if m.AssimPending() != 0 {
			t.Errorf("%d reports left pending after drain", m.AssimPending())
		}
		return runs, coalesced
	}

	perEvent, _ := storm(Options{})
	batched, coalesced := storm(Options{AssimWindow: 5 * sim.Millisecond})
	t.Logf("storm of %d flaps: %d per-event runs, %d coalesced runs (%d reports batched)",
		flaps, perEvent, batched, coalesced)
	if batched == 0 {
		t.Fatal("coalesced storm produced no runs")
	}
	if batched*5 > perEvent {
		t.Errorf("coalesced storm took %d runs vs %d per-event; want at least 5x fewer", batched, perEvent)
	}
	if coalesced < 2*flaps {
		t.Errorf("batched runs assimilated %d reports, want at least %d", coalesced, 2*flaps)
	}
}

// TestCoalescedBatchCapForcesFlush checks that assimBatchMax bounds the
// debounce window. One switch of an 8x8 torus after another flaps, each
// making its five live neighbours (four switches, one endpoint) report
// the port they face it on, inside a window far longer than the storm:
// twenty switches name more than assimBatchMax distinct (reporter, port)
// pairs, and the cap flushes mid-storm; eight name fewer, and the batch
// waits for the window and one run.
func TestCoalescedBatchCapForcesFlush(t *testing.T) {
	storm := func(switches int) (runs, peak int) {
		e, f, m := assimSetup(t, topo.Torus(8, 8), Options{AssimWindow: 10 * sim.Millisecond})
		m.OnDiscoveryComplete = func(Result) { runs++ }
		base := e.Now().Add(10 * sim.Microsecond)
		for i := 0; i < switches; i++ {
			id := topo.NodeID(18 + i) // rows 2-4: away from the host on sw(0,0)
			at := base.Add(sim.Duration(i) * 60 * sim.Microsecond)
			e.At(at, func(*sim.Engine) {
				if err := f.SetDeviceDown(id, false); err != nil {
					t.Error(err)
				}
			})
			e.At(at.Add(30*sim.Microsecond), func(*sim.Engine) {
				if err := f.SetDeviceUp(id, false); err != nil {
					t.Error(err)
				}
			})
		}
		for e.Step() {
			peak = max(peak, m.AssimPending())
		}
		dbMatchesFabric(t, f, m, fmt.Sprintf("after a storm of %d switches", switches))
		return runs, peak
	}
	if runs, peak := storm(20); runs < 2 || peak < assimBatchMax {
		t.Errorf("20 switches: %d runs, at most %d pairs pending; want at least 2 runs after the batch reached %d",
			runs, peak, assimBatchMax)
	}
	if runs, peak := storm(8); runs != 1 || peak >= assimBatchMax {
		t.Errorf("8 switches: %d runs, at most %d pairs pending; want 1 run, below the cap", runs, peak)
	}
}

// TestFullRunDropsPendingBatchButStaysDirty: when a full rediscovery
// begins with reports still waiting in the debounce window, the batch is
// discarded (the full run observes the fabric's current state anyway) but
// the run must be marked dirty so no accepted report goes uncovered.
func TestFullRunDropsPendingBatchButStaysDirty(t *testing.T) {
	e, f, m := assimSetup(t, topo.Mesh(3, 3), Options{AssimWindow: 500 * sim.Microsecond})
	runs := 0
	m.OnDiscoveryComplete = func(Result) { runs++ }

	// Take a non-host corner switch down; its neighbours' reports land in
	// the debounce window. Before the window expires, start a full run.
	e.After(sim.Microsecond, func(*sim.Engine) {
		if err := f.SetDeviceDown(8, false); err != nil {
			t.Error(err)
		}
	})
	e.After(50*sim.Microsecond, func(*sim.Engine) {
		if m.AssimPending() == 0 {
			t.Error("no reports pending when full run starts")
		}
		m.StartDiscovery()
	})
	e.Run()

	if m.AssimPending() != 0 {
		t.Errorf("%d reports still pending after drain", m.AssimPending())
	}
	if runs < 2 {
		t.Errorf("%d runs completed, want at least 2 (dropped batch must dirty the full run)", runs)
	}
	dbMatchesFabric(t, f, m, "after full run over pending batch")
}

// TestPartialSeqPrunedOnRemoval is the regression test for the unbounded
// cursor map: when the partial path prunes a device from the database,
// its PI-5 sequence cursor must go with it.
func TestPartialSeqPrunedOnRemoval(t *testing.T) {
	e, f, m := partialSetup(t, topo.Mesh(3, 3))
	victim := topo.NodeID(8) // sw(2,2), corner, away from the host
	dsn := f.Device(victim).DSN

	// Make the victim report once so it owns a cursor: cycle one of its
	// neighbours (sw(1,2), which does not disconnect the victim) so the
	// victim reports that port going down and up.
	flapDevice(t, e, f, 5, 1, 60*sim.Microsecond, 30*sim.Microsecond)
	e.Run()
	if _, ok := m.partialSeq[dsn]; !ok {
		t.Fatal("setup: victim never reported, no cursor to prune")
	}

	if err := f.SetDeviceDown(victim, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	dbMatchesFabric(t, f, m, "after victim removal")
	if m.DB().Node(dsn) != nil {
		t.Fatal("victim still in database")
	}
	if _, ok := m.partialSeq[dsn]; ok {
		t.Error("PI-5 sequence cursor survived the victim's removal from the database")
	}
}

// TestExpireReportersPrunesAfterFullRebuild covers the other leak path:
// a full rediscovery rebuilds the database from scratch and never touches
// the cursor map, so the daemon's expiry sweep must reclaim cursors of
// devices the rebuild no longer found.
func TestExpireReportersPrunesAfterFullRebuild(t *testing.T) {
	e, f, m := partialSetup(t, topo.Mesh(3, 3))
	victim := topo.NodeID(8)
	dsn := f.Device(victim).DSN

	flapDevice(t, e, f, 5, 1, 60*sim.Microsecond, 30*sim.Microsecond)
	e.Run()
	if _, ok := m.partialSeq[dsn]; !ok {
		t.Fatal("setup: victim never reported")
	}

	// Quiet removal: no PI-5s, so the partial path never prunes. A full
	// audit rebuilds the database without the victim; the cursor leaks
	// until ExpireReporters sweeps it.
	if err := f.SetDeviceDown(victim, true); err != nil {
		t.Fatal(err)
	}
	m.StartDiscovery()
	e.Run()
	if m.DB().Node(dsn) != nil {
		t.Fatal("victim still in database after full rebuild")
	}
	if _, ok := m.partialSeq[dsn]; !ok {
		t.Fatal("cursor missing before the sweep; leak path not exercised")
	}
	if n := m.ExpireReporters(); n != 1 {
		t.Errorf("ExpireReporters reclaimed %d cursors, want 1", n)
	}
	if _, ok := m.partialSeq[dsn]; ok {
		t.Error("cursor survived the expiry sweep")
	}
	// Nothing left to reclaim on a second sweep.
	if n := m.ExpireReporters(); n != 0 {
		t.Errorf("second sweep reclaimed %d cursors, want 0", n)
	}
}

// TestDBStalenessAges checks the staleness percentiles: immediately after
// discovery every node was just validated, and letting simulated time
// pass without contact ages the whole distribution together.
func TestDBStalenessAges(t *testing.T) {
	e, _, m := partialSetup(t, topo.Mesh(3, 3))
	_, _, max := m.DBStaleness()
	// Validation stamps are set during the run, so the max age is bounded
	// by the discovery duration.
	res, _ := m.LastResult()
	if max > res.Duration+sim.Millisecond {
		t.Errorf("max staleness %v right after discovery, want at most the run duration %v", max, res.Duration)
	}

	e.RunUntil(e.Now().Add(10 * sim.Millisecond))
	p50, p99, max2 := m.DBStaleness()
	if max2 < 10*sim.Millisecond {
		t.Errorf("max staleness %v after 10ms idle, want at least 10ms", max2)
	}
	if p50 > p99 || p99 > max2 {
		t.Errorf("percentiles out of order: p50=%v p99=%v max=%v", p50, p99, max2)
	}
}
