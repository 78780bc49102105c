package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topo"
)

// setup builds a fabric over tp and attaches a manager with the given
// algorithm to the first endpoint.
func setup(t testing.TB, tp *topo.Topology, kind Kind) (*sim.Engine, *fabric.Fabric, *Manager) {
	t.Helper()
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	ep := f.Device(tp.Endpoints()[0])
	m := NewManager(f, ep, Options{Algorithm: kind})
	return e, f, m
}

// runDiscovery starts a discovery and returns the result.
func runDiscovery(t testing.TB, e *sim.Engine, m *Manager) Result {
	t.Helper()
	var res Result
	done := false
	m.OnDiscoveryComplete = func(r Result) { res = r; done = true }
	m.StartDiscovery()
	e.Run()
	if !done {
		t.Fatal("discovery did not complete")
	}
	return res
}

func TestDiscoveryFindsEverythingAllAlgorithmsAllTopologies(t *testing.T) {
	for _, spec := range topo.Table1() {
		for _, kind := range PaperKinds() {
			tp := spec.Build()
			e, f, m := setup(t, tp, kind)
			res := runDiscovery(t, e, m)
			wantDev, wantLinks := f.AliveReachable(m.Device().ID)
			if res.Devices != wantDev {
				t.Errorf("%s / %s: discovered %d devices, want %d", spec.Name, kind, res.Devices, wantDev)
			}
			if res.Links != wantLinks {
				t.Errorf("%s / %s: discovered %d links, want %d", spec.Name, kind, res.Links, wantLinks)
			}
			if res.Switches != spec.Switches {
				t.Errorf("%s / %s: discovered %d switches, want %d", spec.Name, kind, res.Switches, spec.Switches)
			}
			if res.TimedOut != 0 {
				t.Errorf("%s / %s: %d timeouts on a healthy fabric", spec.Name, kind, res.TimedOut)
			}
		}
	}
}

func TestAlgorithmOrderingParallelFastest(t *testing.T) {
	durations := map[Kind]sim.Duration{}
	for _, kind := range PaperKinds() {
		e, _, m := setup(t, topo.Mesh(6, 6), kind)
		durations[kind] = runDiscovery(t, e, m).Duration
	}
	if !(durations[Parallel] < durations[SerialDevice]) {
		t.Errorf("Parallel (%v) not faster than Serial Device (%v)",
			durations[Parallel], durations[SerialDevice])
	}
	if !(durations[SerialDevice] < durations[SerialPacket]) {
		t.Errorf("Serial Device (%v) not faster than Serial Packet (%v)",
			durations[SerialDevice], durations[SerialPacket])
	}
}

func TestPacketCountsSimilarAcrossAlgorithms(t *testing.T) {
	// Paper section 4.1: "the amount of discovery packets employed by
	// the serial and parallel discovery algorithms is very similar".
	sent := map[Kind]uint64{}
	for _, kind := range PaperKinds() {
		e, _, m := setup(t, topo.Torus(6, 6), kind)
		sent[kind] = runDiscovery(t, e, m).PacketsSent
	}
	base := sent[SerialPacket]
	for _, kind := range PaperKinds() {
		ratio := float64(sent[kind]) / float64(base)
		if ratio < 0.9 || ratio > 1.15 {
			t.Errorf("%s sent %d packets vs Serial Packet's %d (ratio %.2f)",
				kind, sent[kind], base, ratio)
		}
	}
}

func TestDiscoveryAfterSwitchRemoval(t *testing.T) {
	for _, kind := range PaperKinds() {
		tp := topo.Mesh(4, 4)
		e, f, m := setup(t, tp, kind)
		runDiscovery(t, e, m)
		// Remove a switch quietly and rediscover explicitly.
		if err := f.SetDeviceDown(5, true); err != nil { // sw(1,1)
			t.Fatal(err)
		}
		e.Run()
		res := runDiscovery(t, e, m)
		wantDev, wantLinks := f.AliveReachable(m.Device().ID)
		if res.Devices != wantDev || res.Links != wantLinks {
			t.Errorf("%s: rediscovered %d devices / %d links, want %d / %d",
				kind, res.Devices, res.Links, wantDev, wantLinks)
		}
		if res.Devices >= 32 {
			t.Errorf("%s: removal did not shrink the topology (%d devices)", kind, res.Devices)
		}
	}
}

func TestChangeAssimilationEndToEnd(t *testing.T) {
	for _, kind := range PaperKinds() {
		tp := topo.Mesh(3, 3)
		e, f, m := setup(t, tp, kind)
		runDiscovery(t, e, m)

		distDone := false
		m.DistributeEventRoutes(func(d DistResult) {
			distDone = true
			if d.Failures != 0 {
				t.Errorf("%s: %d event-route write failures", kind, d.Failures)
			}
			if d.Writes != 17 { // all devices except the host endpoint
				t.Errorf("%s: %d event-route writes, want 17", kind, d.Writes)
			}
		})
		e.Run()
		if !distDone {
			t.Fatalf("%s: distribution did not complete", kind)
		}

		// Now remove a switch loudly: PI-5 reports must trigger exactly
		// one rediscovery.
		var results []Result
		m.OnDiscoveryComplete = func(r Result) { results = append(results, r) }
		if err := f.SetDeviceDown(4, false); err != nil { // centre switch
			t.Fatal(err)
		}
		e.Run()

		if len(results) != 1 {
			t.Fatalf("%s: change triggered %d discoveries, want 1", kind, len(results))
		}
		wantDev, wantLinks := f.AliveReachable(m.Device().ID)
		if results[0].Devices != wantDev || results[0].Links != wantLinks {
			t.Errorf("%s: assimilated %d devices / %d links, want %d / %d",
				kind, results[0].Devices, results[0].Links, wantDev, wantLinks)
		}
	}
}

func TestHotAdditionAssimilation(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e, f, m := setup(t, tp, Parallel)
	// Boot with sw(2,2) absent, then add it after initial discovery.
	if err := f.SetDeviceDown(8, true); err != nil {
		t.Fatal(err)
	}
	runDiscovery(t, e, m)
	if m.DB().NumNodes() != 16 {
		t.Fatalf("baseline discovery found %d devices, want 16", m.DB().NumNodes())
	}
	m.DistributeEventRoutes(nil)
	e.Run()

	var results []Result
	m.OnDiscoveryComplete = func(r Result) { results = append(results, r) }
	if err := f.SetDeviceUp(8, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(results) != 1 {
		t.Fatalf("addition triggered %d discoveries, want 1", len(results))
	}
	if results[0].Devices != 18 {
		t.Errorf("post-addition topology has %d devices, want 18", results[0].Devices)
	}
}

// TestTimelineMonotonicAndComplete reads each paper algorithm's Fig. 7(a)
// trace from the span log of a 3x3-mesh discovery: one run band, one
// point per processed packet, never going backwards.
func TestTimelineMonotonicAndComplete(t *testing.T) {
	for _, kind := range PaperKinds() {
		e, _, m := setup(t, topo.Mesh(3, 3), kind)
		sp := span.New(0)
		m.sp = sp
		res := runDiscovery(t, e, m)
		runs, err := span.Timelines(sp.Log(), UpkeepBand)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(runs) != 1 {
			t.Fatalf("%s: %d run bands, want 1", kind, len(runs))
		}
		tl := runs[0]
		if len(tl) != res.Processed {
			t.Errorf("%s: timeline has %d points, processed %d", kind, len(tl), res.Processed)
		}
		for i := 1; i < len(tl); i++ {
			if tl[i] < tl[i-1] {
				t.Errorf("%s: timeline goes backwards at %d", kind, i)
			}
		}
	}
}

// TestTimelinesRefuseADroppedLog: a log that hit its cap may have lost
// FM-service spans, so no timeline is read from it.
func TestTimelinesRefuseADroppedLog(t *testing.T) {
	e, _, m := setup(t, topo.Mesh(3, 3), Parallel)
	sp := span.New(64)
	m.sp = sp
	runDiscovery(t, e, m)
	if sp.Dropped() == 0 {
		t.Fatal("a 64-span cap dropped nothing")
	}
	if runs, err := span.Timelines(sp.Log(), UpkeepBand); err == nil {
		t.Errorf("read %d run bands from a log that dropped %d spans", len(runs), sp.Dropped())
	}
}

func TestSerialPacketHasOneRequestInFlight(t *testing.T) {
	// White-box: watch the pending table during a Serial Packet run.
	e, _, m := setup(t, topo.Mesh(3, 3), SerialPacket)
	maxPending := 0
	m.OnDiscoveryComplete = func(Result) {}
	m.StartDiscovery()
	for e.Step() {
		if n := len(m.pending); n > maxPending {
			maxPending = n
		}
	}
	if maxPending != 1 {
		t.Errorf("Serial Packet had up to %d requests in flight, want exactly 1", maxPending)
	}
}

func TestSerialDeviceParallelizesPortReadsOnly(t *testing.T) {
	e, _, m := setup(t, topo.Mesh(3, 3), SerialDevice)
	maxPending := 0
	m.StartDiscovery()
	for e.Step() {
		if n := len(m.pending); n > maxPending {
			maxPending = n
		}
	}
	// A 16-port switch's reads go out together; more than one but never
	// more than one device's worth.
	if maxPending <= 1 || maxPending > topo.GridPorts {
		t.Errorf("Serial Device max in-flight = %d, want in (1, %d]", maxPending, topo.GridPorts)
	}
}

func TestParallelHasManyRequestsInFlight(t *testing.T) {
	// Outstanding work = requests in the fabric plus completions queued
	// at the FM processor (the FM is the pipeline bottleneck, so the
	// backlog accumulates in its queue).
	e, _, m := setup(t, topo.Mesh(4, 4), Parallel)
	maxOutstanding := 0
	m.StartDiscovery()
	for e.Step() {
		if n := len(m.pending) + m.queue.Len(); n > maxOutstanding {
			maxOutstanding = n
		}
	}
	if maxOutstanding <= topo.GridPorts {
		t.Errorf("Parallel max outstanding = %d, want > one device's port reads", maxOutstanding)
	}
}

func TestDiscoveryDeterministic(t *testing.T) {
	for _, kind := range PaperKinds() {
		var prev Result
		for trial := 0; trial < 2; trial++ {
			e, _, m := setup(t, topo.Torus(4, 4), kind)
			res := runDiscovery(t, e, m)
			if trial == 1 {
				if res.Duration != prev.Duration || res.PacketsSent != prev.PacketsSent {
					t.Errorf("%s: nondeterministic: %v/%d vs %v/%d",
						kind, res.Duration, res.PacketsSent, prev.Duration, prev.PacketsSent)
				}
			}
			prev = res
		}
	}
}

func TestRemovalMidDiscoveryTimesOutAndCompletes(t *testing.T) {
	tp := topo.Mesh(4, 4)
	e, f, m := setup(t, tp, Parallel)
	var res *Result
	m.OnDiscoveryComplete = func(r Result) { res = &r }
	m.StartDiscovery()
	// Kill a far switch shortly after discovery starts, while probes are
	// in flight.
	e.After(30*sim.Microsecond, func(*sim.Engine) {
		_ = f.SetDeviceDown(15, true) // sw(3,3)
	})
	e.Run()
	if res == nil {
		t.Fatal("discovery hung after mid-flight removal")
	}
	// Requests addressed to the dead device expire rather than complete.
	if res.Devices == 32 {
		t.Error("dead device still in topology")
	}
}

func TestIsolatedManagerDiscoversOnlyItself(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	ep := f.Device(tp.Endpoints()[0])
	m := NewManager(f, ep, Options{Algorithm: SerialPacket})
	// Cut the endpoint off by killing its host switch.
	if err := f.SetDeviceDown(0, true); err != nil {
		t.Fatal(err)
	}
	res := runDiscovery(t, e, m)
	if res.Devices != 1 || res.Links != 0 {
		t.Errorf("isolated FM discovered %d devices / %d links, want 1 / 0", res.Devices, res.Links)
	}
}

func TestAvgFMProcessingMatchesCostModelOrder(t *testing.T) {
	avg := map[Kind]sim.Duration{}
	for _, kind := range PaperKinds() {
		e, _, m := setup(t, topo.Mesh(6, 6), kind)
		avg[kind] = runDiscovery(t, e, m).AvgFMProcessing()
	}
	if !(avg[Parallel] < avg[SerialDevice] && avg[SerialDevice] < avg[SerialPacket]) {
		t.Errorf("Fig. 4 ordering violated: %v", avg)
	}
}

func TestFMFactorSpeedsUpDiscovery(t *testing.T) {
	run := func(factor float64) sim.Duration {
		tp := topo.Mesh(4, 4)
		e := sim.NewEngine()
		f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(f, f.Device(tp.Endpoints()[0]), Options{Algorithm: Parallel, FMFactor: factor})
		return runDiscovery(t, e, m).Duration
	}
	slow, fast := run(0.5), run(4)
	if fast >= slow {
		t.Errorf("FM factor 4 (%v) not faster than factor 0.5 (%v)", fast, slow)
	}
	// The Parallel algorithm is FM-bound, so speedup should be roughly
	// proportional.
	if ratio := float64(slow) / float64(fast); ratio < 4 {
		t.Errorf("FM-bound speedup only %.1fx between factors 0.5 and 4", ratio)
	}
}

func TestNewManagerOnSwitchPanics(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e := sim.NewEngine()
	f, _ := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Error("manager on switch did not panic")
		}
	}()
	NewManager(f, f.Device(0), Options{})
}

func TestLastResult(t *testing.T) {
	e, _, m := setup(t, topo.Mesh(3, 3), Parallel)
	if _, ok := m.LastResult(); ok {
		t.Error("LastResult before any run")
	}
	want := runDiscovery(t, e, m)
	got, ok := m.LastResult()
	if !ok || got.Duration != want.Duration {
		t.Error("LastResult mismatch")
	}
	if m.Discovering() {
		t.Error("still discovering after completion")
	}
}

func TestResultStringNonEmpty(t *testing.T) {
	e, _, m := setup(t, topo.Mesh(3, 3), Parallel)
	res := runDiscovery(t, e, m)
	if res.String() == "" || res.AvgFMProcessing() == 0 {
		t.Error("result rendering broken")
	}
}
