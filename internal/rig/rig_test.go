package rig_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
)

// run is everything two executions of one discovery case must agree on.
type run struct {
	results    []core.Result // Timeline dropped
	processed  uint64
	scheduled  uint64
	farPushes  uint64
	maxPending int
	counters   fabric.Counters
	dbFP       uint64
}

// collect is the run's completion hook: results without their
// timelines, as the benchmark keeps them.
func (r *run) collect(res core.Result) {
	res.Timeline = nil
	r.results = append(r.results, res)
}

// The changes of a discovery case, as bench/discover.go names them.
const (
	noChange = iota
	removeSwitch
	addSwitch
)

// byHand is the recipe spelled out layer by layer, as bench/discover.go
// writes it: engine, fabric on the seed's fabric stream, manager on the
// first endpoint, target drawn from the same stream, discovery, and —
// only when there is a change to detect — event routes, the toggle and
// the assimilation.
func byHand(t *testing.T, tp *topo.Topology, alg core.Kind, change int, seed uint64) run {
	t.Helper()
	e := sim.NewEngine()
	rng := sim.NewRNG(seed*2654435761 + 1)
	f, err := fabric.New(e, tp, fabric.Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ep := f.Device(tp.Endpoints()[0])
	m := core.NewManager(f, ep, core.Options{Algorithm: alg})
	hostSwitch, _, _ := tp.Peer(ep.ID, 0)
	var target topo.NodeID
	if change != noChange {
		for target = f.RandomSwitch(rng); target == hostSwitch; {
			target = f.RandomSwitch(rng)
		}
	}
	if change == addSwitch {
		if err := f.SetDeviceDown(target, true); err != nil {
			t.Fatal(err)
		}
	}
	var out run
	m.OnDiscoveryComplete = out.collect
	m.StartDiscovery()
	e.Run()
	if change != noChange {
		failures := 0
		m.DistributeEventRoutes(func(d core.DistResult) { failures = d.Failures })
		e.Run()
		if failures > 0 {
			t.Fatalf("%d event-route distribution failures", failures)
		}
		if change == removeSwitch {
			err = f.SetDeviceDown(target, false)
		} else {
			err = f.SetDeviceUp(target, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
	}
	out.processed, out.scheduled, out.farPushes, out.maxPending = e.Processed, e.Scheduled, e.FarPushes, e.MaxPending
	out.counters, out.dbFP = f.Counters(), m.DB().Fingerprint()
	return out
}

// onRig is the same case driven through the rig; observe sets the rig's
// Telemetry and Spans.
func onRig(t *testing.T, tp *topo.Topology, alg core.Kind, change int, seed uint64, observe rig.Config) run {
	t.Helper()
	r, err := rig.New(tp, rig.Config{Seed: seed, Telemetry: observe.Telemetry, Spans: observe.Spans, Manager: core.Options{Algorithm: alg}})
	if err != nil {
		t.Fatal(err)
	}
	var target topo.NodeID
	if change != noChange {
		for target = r.Fabric.RandomSwitch(r.RNG); target == r.HostSwitch; {
			target = r.Fabric.RandomSwitch(r.RNG)
		}
	}
	if change == addSwitch {
		if err := r.Fabric.SetDeviceDown(target, true); err != nil {
			t.Fatal(err)
		}
	}
	var out run
	r.Manager.OnDiscoveryComplete = out.collect
	if change == noChange {
		r.Manager.StartDiscovery()
		r.Run()
	} else {
		if err := r.Bootstrap(); err != nil {
			t.Fatal(err)
		}
		if err := r.Toggle(target, change == removeSwitch); err != nil {
			t.Fatal(err)
		}
		r.Run()
	}
	e := r.Engine
	out.processed, out.scheduled, out.farPushes, out.maxPending = e.Processed, e.Scheduled, e.FarPushes, e.MaxPending
	out.counters, out.dbFP = r.Fabric.Counters(), r.Manager.DB().Fingerprint()
	return out
}

// TestRigEqualsHandAssembly pins the seam: a run built by rig.New equals
// the recipe assembled by hand from sim, fabric and core — the same
// discovery results, event count, heap high-water, fabric accounting and
// database, for every algorithm and change on one fabric per family. It
// is what lets the benchmark's own assemblies move onto the rig later
// without re-pinning their goldens.
func TestRigEqualsHandAssembly(t *testing.T) {
	for _, name := range []string{"4x4 mesh", "4x4 torus", "4-port 3-tree"} {
		tp, err := topo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range core.PaperKinds() {
			for change, changeName := range []string{"none", "remove", "add"} {
				t.Run(fmt.Sprintf("%s/%s/%s", name, alg.Slug(), changeName), func(t *testing.T) {
					const seed = 3
					want, got := byHand(t, tp, alg, change, seed), onRig(t, tp, alg, change, seed, rig.Config{})
					if len(want.results) == 0 || (change != noChange && len(want.results) < 2) {
						t.Fatalf("hand-assembled run completed %d discoveries; the case measures nothing", len(want.results))
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("rig-built run differs from the hand-assembled one:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// TestObserversDoNotPerturbSimulation: switching telemetry or span
// tracing on schedules no engine event and changes nothing simulated —
// the same event count, heap high-water, results, fabric accounting and
// database as the plain run, for every algorithm and change.
func TestObserversDoNotPerturbSimulation(t *testing.T) {
	tp, err := topo.ByName("4x4 torus")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range core.PaperKinds() {
		for change, changeName := range []string{"none", "remove", "add"} {
			const seed = 5
			plain := onRig(t, tp, alg, change, seed, rig.Config{})
			for _, observe := range []rig.Config{{Telemetry: true}, {Spans: true}} {
				if got := onRig(t, tp, alg, change, seed, observe); !reflect.DeepEqual(got, plain) {
					t.Errorf("%s/%s with telemetry %v, spans %v: %d events, want the plain run's %d; runs differ:\n got %+v\nwant %+v",
						alg.Slug(), changeName, observe.Telemetry, observe.Spans, got.processed, plain.processed, got, plain)
				}
			}
		}
	}
}

// TestHotplugReportsAndConverges applies one toggle list — including a
// down of a device already down and an up of one already up. The rig must
// hand the fabric's refusals back (the daemon used to drop them) and end
// on the whole fabric.
func TestHotplugReportsAndConverges(t *testing.T) {
	tp, err := topo.ByName("6x6 mesh")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rig.New(tp, rig.Config{Seed: 7, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Any two switches but the manager's own.
	var churned []topo.NodeID
	for _, n := range tp.Nodes {
		if n.Type == asi.DeviceSwitch && n.ID != r.HostSwitch && len(churned) < 2 {
			churned = append(churned, n.ID)
		}
	}
	a, b := churned[0], churned[1]
	base := r.Engine.Now()
	at := func(i int) sim.Time { return base.Add(sim.Duration(i) * 50 * sim.Microsecond) }
	got := map[int]error{}
	for i, t := range []struct {
		node topo.NodeID
		down bool
	}{
		{a, true},
		{a, true}, // already down
		{b, true},
		{a, false},
		{a, false}, // already up
		{b, false},
	} {
		r.Hotplug(at(i), t.node, t.down, func(err error) { got[i] = err })
	}
	r.Run()
	if len(got) != 2 || !errors.Is(got[1], fabric.ErrAlreadyDown) || !errors.Is(got[4], fabric.ErrAlreadyUp) {
		t.Errorf("Hotplug reported %v, want ErrAlreadyDown for toggle 1 and ErrAlreadyUp for toggle 4", got)
	}
	if n := r.Manager.DB().NumNodes(); n != len(tp.Nodes) {
		t.Errorf("database has %d devices after full restoration, fabric %d", n, len(tp.Nodes))
	}
}

// TestRunForStopsAtHorizon: a horizon that cuts a discovery short must
// be reported as undrained — the chaos oracle's "engine hung" signal —
// with the clock at the horizon, not beyond it.
func TestRunForStopsAtHorizon(t *testing.T) {
	tp, err := topo.ByName("4x4 mesh")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rig.New(tp, rig.Config{Seed: 1, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		t.Fatal(err)
	}
	r.Manager.StartDiscovery()
	const horizon = 20 * sim.Microsecond
	start := r.Engine.Now()
	if r.RunFor(horizon) {
		t.Fatalf("a 16-switch discovery drained within %v", horizon)
	}
	if r.Engine.Pending() == 0 || !r.Manager.Discovering() {
		t.Errorf("undrained run left %d events pending, discovering=%v", r.Engine.Pending(), r.Manager.Discovering())
	}
	if now := r.Engine.Now(); now != start.Add(horizon) {
		t.Errorf("clock at %v after RunFor(%v) from %v", now, horizon, start)
	}
	if !r.RunFor(sim.Second) {
		t.Fatal("discovery still undrained a simulated second later")
	}
	if _, ok := r.Manager.LastResult(); !ok || r.Engine.Pending() != 0 {
		t.Errorf("drained run completed no discovery (pending %d)", r.Engine.Pending())
	}
}

// TestTwoManagersOneRig: a manager added on a further endpoint shares the
// rig's fabric with the first and not its endpoint. Both discover the
// whole fabric, each other's host included, and each consumes exactly
// the completions of its own requests — if the second were attached to
// (or overwrote the handler of) endpoint 0, the first would hear nothing
// and never finish.
func TestTwoManagersOneRig(t *testing.T) {
	tp, err := topo.ByName("4x4 mesh")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rig.New(tp, rig.Config{Seed: 1, Telemetry: true, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		t.Fatal(err)
	}
	eps := tp.Endpoints()
	second := r.AddManager(eps[len(eps)/2], core.Options{Algorithm: core.Parallel})
	if r.Manager.Device().ID != eps[0] || second.Device().ID != eps[len(eps)/2] {
		t.Fatalf("managers on endpoints %d and %d, want %d and %d",
			r.Manager.Device().ID, second.Device().ID, eps[0], eps[len(eps)/2])
	}
	r.Manager.StartDiscovery()
	second.StartDiscovery()
	r.Run()
	var received uint64
	for i, m := range []*core.Manager{r.Manager, second} {
		res, ok := m.LastResult()
		if !ok {
			t.Fatalf("manager %d completed no discovery", i)
		}
		if res.Devices != len(tp.Nodes) || res.TimedOut != 0 || res.PacketsReceived != res.PacketsSent {
			t.Errorf("manager %d: %d of %d devices, %d timeouts, %d sent / %d received",
				i, res.Devices, len(tp.Nodes), res.TimedOut, res.PacketsSent, res.PacketsReceived)
		}
		received += res.PacketsReceived
	}
	if r.Manager.DB().Node(second.Device().DSN) == nil || second.DB().Node(r.Manager.Device().DSN) == nil {
		t.Error("the managers did not discover each other's endpoints")
	}
	// The rig handed the second manager its registry too: the fm.rtt.*
	// histograms count both managers' round trips.
	var roundTrips uint64
	for _, h := range r.Snapshot().Histograms {
		if strings.HasPrefix(h.Name, core.MetricFMRTTPrefix) {
			roundTrips += h.Count
		}
	}
	if roundTrips != received {
		t.Errorf("registry saw %d round trips, the two managers received %d completions", roundTrips, received)
	}
}

// TestQueuePremiseFarPushShare pins the traffic assumption the engine's
// event queue is built on: nearly every scheduled event is early enough to
// be served by the sorted near run, and only a small share takes the far
// heap's full sift. The cases are the bench workloads' shapes: a Parallel
// rediscovery after a switch removal on the daemon's 8x8 torus (reads
// 0.10 %), and cold Parallel discoveries of the two stress fabrics
// (dragonfly 16x64: 0 %, at most 63 pending; autofat 128x4096: 2.6 %, the
// deepest queue any workload builds, 1 439 pending). A fabric-model change
// that moves these shares has moved the queue's premise: re-measure
// (EXPERIMENTS.md "The simulator") before touching a bound.
func TestQueuePremiseFarPushShare(t *testing.T) {
	for _, c := range []struct {
		topo   string
		change int
		bound  float64
	}{
		{"8x8 torus", removeSwitch, 0.02},
		{"dragonfly 16x64", noChange, 0.02},
		{"autofat 128x4096", noChange, 0.05},
	} {
		tp, err := topo.ByName(c.topo)
		if err != nil {
			t.Fatal(err)
		}
		r := onRig(t, tp, core.Parallel, c.change, 1, rig.Config{})
		share := float64(r.farPushes) / float64(r.scheduled)
		t.Logf("%s: %d of %d scheduled events entered the far heap (%.3f %%), max pending %d",
			c.topo, r.farPushes, r.scheduled, 100*share, r.maxPending)
		if r.scheduled == 0 || share > c.bound {
			t.Errorf("%s: far pushes are %.2f %% of %d scheduled events, bound %.0f %%", c.topo, 100*share, r.scheduled, 100*c.bound)
		}
	}
}

// TestDiscoveryKicksEqualTransmissions pins one serializer kick per link
// transmission over a whole 8x8-torus Parallel discovery. The kicks are
// what is left of the processed events once every other kind is counted
// from the fabric and the manager:
//
//   - a flight's arrival per transmission (Counters().TxPackets);
//   - a switch routing decision per arrival not consumed by an endpoint;
//   - a device's PI-4 service per request it consumed (every packet a
//     device other than the manager's endpoint consumes is one);
//   - an FM work item per Result.Processed, its own device read included.
//
// No timeout fires on a loss-free fabric, and nothing else is scheduled.
func TestDiscoveryKicksEqualTransmissions(t *testing.T) {
	r, err := rig.New(topo.Torus(8, 8), rig.Config{Seed: 1, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		t.Fatal(err)
	}
	r.Manager.StartDiscovery()
	r.Run()
	res, ok := r.Manager.LastResult()
	if !ok || res.TimedOut != 0 {
		t.Fatalf("discovery: result %v, %d timeouts", ok, res.TimedOut)
	}
	tx := r.Fabric.Counters().TxPackets
	var endpointRx, services uint64
	for _, d := range r.Fabric.Devices() {
		if d.Type == asi.DeviceEndpoint {
			endpointRx += d.RxPackets
		}
		if d != r.Manager.Device() {
			services += d.RxPackets
		}
	}
	routings := tx - endpointRx
	kicks := r.Engine.Processed - tx - routings - services - uint64(res.Processed)
	if kicks != tx {
		t.Errorf("%d kick events for %d transmissions (%d events: %d routings, %d PI-4 services, %d FM work items)",
			kicks, tx, r.Engine.Processed, routings, services, res.Processed)
	}
}
