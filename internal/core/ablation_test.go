package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// setupOpts is setup with full manager options.
func setupOpts(t *testing.T, tp *topo.Topology, opt Options) (*sim.Engine, *fabric.Fabric, *Manager) {
	t.Helper()
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(f, f.Device(tp.Endpoints()[0]), opt)
	return e, f, m
}

func TestBatchedPortReadsStillCorrect(t *testing.T) {
	for _, batch := range []int{1, 2, 4, 9 /* clamped to 4 */} {
		for _, kind := range PaperKinds() {
			tp := topo.Torus(4, 4)
			e, f, m := setupOpts(t, tp, Options{Algorithm: kind, PortReadBatch: batch})
			res := runDiscovery(t, e, m)
			wantDev, wantLinks := f.AliveReachable(m.Device().ID)
			if res.Devices != wantDev || res.Links != wantLinks {
				t.Errorf("%v batch=%d: %d devices / %d links, want %d / %d",
					kind, batch, res.Devices, res.Links, wantDev, wantLinks)
			}
		}
	}
}

func TestBatchedPortReadsSaveRequests(t *testing.T) {
	run := func(batch int) uint64 {
		tp := topo.Mesh(6, 6)
		e, _, m := setupOpts(t, tp, Options{Algorithm: Parallel, PortReadBatch: batch})
		return runDiscovery(t, e, m).PacketsSent
	}
	single, batched := run(1), run(4)
	if batched >= single {
		t.Errorf("batch=4 sent %d packets, batch=1 sent %d — no saving", batched, single)
	}
	// Port reads dominate: expect well under 2/3 of the single-read count.
	if float64(batched) > 0.67*float64(single) {
		t.Errorf("batch=4 saved too little: %d vs %d", batched, single)
	}
}

func TestBatchedPortReadsFasterDiscovery(t *testing.T) {
	run := func(batch int) sim.Duration {
		tp := topo.Mesh(6, 6)
		e, _, m := setupOpts(t, tp, Options{Algorithm: SerialPacket, PortReadBatch: batch})
		return runDiscovery(t, e, m).Duration
	}
	if run(4) >= run(1) {
		t.Error("batched reads did not speed up Serial Packet discovery")
	}
}

func TestNoProbeMemoStillCorrect(t *testing.T) {
	for _, kind := range PaperKinds() {
		tp := topo.Torus(4, 4)
		e, f, m := setupOpts(t, tp, Options{Algorithm: kind, NoProbeMemo: true})
		res := runDiscovery(t, e, m)
		wantDev, wantLinks := f.AliveReachable(m.Device().ID)
		if res.Devices != wantDev || res.Links != wantLinks {
			t.Errorf("%v no-memo: %d devices / %d links, want %d / %d",
				kind, res.Devices, res.Links, wantDev, wantLinks)
		}
	}
}

func TestNoProbeMemoCostsExtraProbes(t *testing.T) {
	run := func(noMemo bool) uint64 {
		tp := topo.Torus(6, 6) // cycles everywhere: the memo matters
		e, _, m := setupOpts(t, tp, Options{Algorithm: Parallel, NoProbeMemo: noMemo})
		return runDiscovery(t, e, m).PacketsSent
	}
	withMemo, without := run(false), run(true)
	if without <= withMemo {
		t.Errorf("no-memo sent %d packets, memo sent %d — expected extra duplicates", without, withMemo)
	}
}

func TestBatchedReadsWithChangeAssimilation(t *testing.T) {
	tp := topo.Mesh(4, 4)
	e, f, m := setupOpts(t, tp, Options{Algorithm: Parallel, PortReadBatch: 4})
	runDiscovery(t, e, m)
	m.DistributeEventRoutes(nil)
	e.Run()
	var res *Result
	m.OnDiscoveryComplete = func(r Result) { res = &r }
	if err := f.SetDeviceDown(5, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if res == nil {
		t.Fatal("assimilation did not run")
	}
	wantDev, wantLinks := f.AliveReachable(m.Device().ID)
	if res.Devices != wantDev || res.Links != wantLinks {
		t.Errorf("batched assimilation: %d/%d, want %d/%d", res.Devices, res.Links, wantDev, wantLinks)
	}
}
