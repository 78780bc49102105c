// Package rig assembles one managed fabric — topology, engine, fabric,
// manager, observers — the way every number in the paper's section 4
// needs it. New performs the assembly once, in one order; the
// experiments, chaos.Execute and cmd/asifmd are drivers over the Rig it
// returns.
package rig

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// The random streams one seed fans out into.
const (
	// StreamFabric is the fabric-level stream (Rig.RNG): the fault plan
	// splits its own off it, then drivers draw their changed switch.
	StreamFabric = 1
	// StreamChurn feeds chaos.Churner's toggle choices.
	StreamChurn = 5
)

// Stream derives stream n of a seed.
func Stream(seed, n uint64) *sim.RNG { return sim.NewRNG(seed*2654435761 + n) }

// spanCap bounds a rig's span log. A full discovery of the largest
// Table 1 topology stays well under it; past it the tracer counts the
// overflow in Log.Dropped instead of growing without bound.
const spanCap = 1 << 20

// Config is everything New needs beyond the topology. The zero value is
// the paper's baseline: lossless, unobserved.
type Config struct {
	Seed uint64
	// DeviceFactor scales the device processing-time model; zero means 1.
	DeviceFactor float64
	Faults       fabric.FaultPlan
	// Telemetry creates Rig.Registry, records the fabric's per-link
	// counters into it and hands it to the manager.
	Telemetry bool
	// Spans creates Rig.Spans and attaches it to fabric and manager: the
	// FM's request timeline and every packet's hops.
	Spans bool
	// Manager configures the fabric manager; New fills in its Telemetry
	// and Spans.
	Manager core.Options
}

// Rig is one managed fabric: the layers a driver works with directly.
type Rig struct {
	Topo    *topo.Topology
	Engine  *sim.Engine
	Fabric  *fabric.Fabric
	Manager *core.Manager
	// Registry and Spans are nil unless the Config asked for them.
	Registry *telemetry.Registry
	Spans    *span.Tracer
	// RNG is the fabric-level stream, advanced by whatever the fabric
	// and its fault plan drew from it.
	RNG *sim.RNG
	// HostSwitch is the switch the manager's endpoint hangs off; taking
	// it down cuts the manager off.
	HostSwitch topo.NodeID
}

// New builds tp's fabric on a fresh engine and attaches a manager to
// the first endpoint. The order — fabric, telemetry, span tracer, fault
// plan, manager — is part of the contract: it fixes the draw order on the
// fabric stream and the order events are scheduled in.
// OnDiscoveryComplete is left to the driver.
func New(tp *topo.Topology, cfg Config) (*Rig, error) {
	r := &Rig{Topo: tp, Engine: sim.NewEngine(), RNG: Stream(cfg.Seed, StreamFabric)}
	if cfg.Telemetry {
		r.Registry = telemetry.New()
	}
	if cfg.Spans {
		r.Spans = span.New(spanCap)
	}
	host, hostSwitch := Host(tp)
	var err error
	if r.Fabric, err = fabric.New(r.Engine, tp, fabric.Config{DeviceFactor: cfg.DeviceFactor}, r.RNG); err != nil {
		return nil, err
	}
	if cfg.Telemetry {
		r.Fabric.EnableTelemetry(r.Registry)
	}
	if r.Spans != nil {
		r.Fabric.SetSpanTracer(r.Spans)
	}
	if err := r.Fabric.SetFaultPlan(cfg.Faults); err != nil {
		return nil, err
	}
	r.HostSwitch = hostSwitch
	r.Manager = r.AddManager(host, cfg.Manager)
	return r, nil
}

// Host returns where New attaches the manager: the topology's first
// endpoint, and the switch cabled to it. Taking that switch down cuts the
// manager off from the whole fabric, so churn never targets it (the
// paper's experiments exclude it too).
func Host(tp *topo.Topology) (endpoint, sw topo.NodeID) {
	endpoint = tp.Endpoints()[0]
	sw, _, _ = tp.Peer(endpoint, 0)
	return endpoint, sw
}

// AddManager attaches a manager to the rig's fabric on the given
// endpoint, with the rig's Telemetry and Spans filled in (the fm.* series
// of one registry then add up over its managers). New attaches the first,
// Rig.Manager; distributed discovery and failover attach their further
// ones here, each on an endpoint of its own.
func (r *Rig) AddManager(host topo.NodeID, opt core.Options) *core.Manager {
	opt.Telemetry, opt.Spans = r.Registry, r.Spans
	return core.NewManager(r.Fabric, r.Fabric.Device(host), opt)
}

// Run drains the simulation to quiescence.
func (r *Rig) Run() { r.RunFor(0) }

// ForEach calls run(0), ..., run(n-1), each on a goroutine of its own
// with at most workers running at once (GOMAXPROCS when workers <= 0),
// and returns when all have returned. A goroutine starts only once it
// holds a worker slot, so a long list parks none. Rigs share no mutable
// state, so independent runs give the same results at any worker count.
func ForEach(n, workers int, run func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			run(i)
		}()
	}
	wg.Wait()
}

// RunFor drains the simulation for at most horizon of simulated time
// (unbounded if zero or less) and reports whether the queue emptied.
// Either way a bounded run leaves the clock at the horizon; events still
// queued there are the chaos oracle's "engine hung" signal.
func (r *Rig) RunFor(horizon sim.Duration) (drained bool) {
	deadline := sim.Never
	if horizon > 0 {
		deadline = r.Engine.Now().Add(horizon)
	}
	r.Engine.RunUntil(deadline)
	return r.Engine.Pending() == 0
}

// DistributeEventRoutes programs every discovered device's event route
// and drains with RunFor(horizon); failures counts the failed writes.
func (r *Rig) DistributeEventRoutes(horizon sim.Duration) (failures int, drained bool) {
	r.Manager.DistributeEventRoutes(func(d core.DistResult) { failures = d.Failures })
	return failures, r.RunFor(horizon)
}

// Bootstrap runs the transient period to quiescence: initial discovery,
// then event-route distribution, after which changes reach the manager
// by PI-5.
func (r *Rig) Bootstrap() error {
	r.Manager.StartDiscovery()
	r.Run()
	if _, ok := r.Manager.LastResult(); !ok {
		return fmt.Errorf("rig: initial discovery of %q completed no run", r.Topo.Name)
	}
	if failures, _ := r.DistributeEventRoutes(0); failures > 0 {
		return fmt.Errorf("rig: %d event-route distribution failures on %q", failures, r.Topo.Name)
	}
	return nil
}

// Toggle hot-removes or restores a device now, loudly (neighbours report
// by PI-5), and returns what SetDeviceDown or SetDeviceUp returned.
func (r *Rig) Toggle(node topo.NodeID, down bool) error {
	if down {
		return r.Fabric.SetDeviceDown(node, false)
	}
	return r.Fabric.SetDeviceUp(node, false)
}

// Hotplug arranges for Toggle(node, down) to happen at the (future) time
// at and hands fail the error if the fabric refuses. The caller drains
// afterwards.
func (r *Rig) Hotplug(at sim.Time, node topo.NodeID, down bool, fail func(error)) {
	r.Engine.At(at, func(*sim.Engine) {
		if err := r.Toggle(node, down); err != nil {
			fail(err)
		}
	})
}

// Snapshot publishes the totals kept outside the registry — fabric flap
// count, engine statistics — and freezes it. Totals are republished, not
// added, so a daemon may call it on every scrape. Every series is
// simulated: no host time enters a snapshot, so it is a function of the
// rig's seed and what was driven through it. It needs Config.Telemetry.
func (r *Rig) Snapshot() telemetry.Snapshot {
	r.Fabric.FinishTelemetry(r.Registry)
	r.Engine.RecordTelemetry(r.Registry, 0)
	return r.Registry.Snapshot()
}
