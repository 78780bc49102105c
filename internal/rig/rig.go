// Package rig assembles one managed fabric — topology, engine, fabric,
// manager, observers — the way every number in the paper's section 4
// needs it. New performs the assembly once, in one order; the
// experiments, chaos.Execute and cmd/asifmd are drivers over the Rig it
// returns. The engine-or-shard-group union of the two simulation paths
// lives here and nowhere above: a driver asks the rig to run, tell the
// time or hot-plug a device, and never learns which path answered.
package rig

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The random streams one seed fans out into.
const (
	// StreamFabric is the fabric-level stream (Rig.RNG): the fault plan
	// splits its own off it, then drivers draw their changed switch.
	StreamFabric = 1
	// StreamShards roots the per-region streams, kept apart so that
	// sequential and sharded runs draw StreamFabric alike.
	StreamShards = 2
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
// the paper's baseline: sequential, lossless, unobserved.
type Config struct {
	Seed uint64
	// Regions > 1 builds the region-sharded simulation with up to that
	// many regions; 0 or 1 is the sequential path.
	Regions int
	// DeviceFactor scales the device processing-time model; zero means 1.
	DeviceFactor float64
	Faults       fabric.FaultPlan
	Trace        trace.Recorder
	// Telemetry creates Rig.Registry and hands it to the manager;
	// LinkTelemetry also records the fabric's per-link counters into it.
	Telemetry, LinkTelemetry bool
	// Spans creates Rig.Spans and attaches it to fabric and manager.
	Spans bool
	// Manager configures the fabric manager; New fills in its Telemetry
	// and Spans.
	Manager core.Options
}

// Shardable reports why a sharded rig cannot be built from c (nil for a
// sequential config): packet tracing, per-link telemetry, span tracing
// and fault injection all observe or perturb single packets on one
// engine's clock. It is the only statement of the rule, and keeps callers
// from the panics in fabric.SetTracer, EnableTelemetry, SetSpanTracer.
func (c Config) Shardable() error {
	if c.Regions <= 1 {
		return nil
	}
	var what string
	switch {
	case c.Trace != nil:
		what = "packet tracing"
	case c.LinkTelemetry:
		what = "per-link telemetry"
	case c.Spans:
		what = "span tracing"
	case !c.Faults.Empty():
		what = "fault injection"
	default:
		return nil
	}
	return fmt.Errorf("rig: %s is unsupported with parallel regions", what)
}

// Rig is one managed fabric: the layers a driver works with directly,
// and as methods what differs between the two simulation paths.
type Rig struct {
	Topo *topo.Topology
	// Engine is the manager's engine: region 0's when sharded.
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

	// path is the simulation path built: Engine, or group when sharded.
	path interface {
		RunUntil(deadline sim.Time) sim.Time
		Now() sim.Time
		Pending() int
	}
	group *sim.ShardGroup // nil when sequential
	start time.Time
}

// New builds tp's fabric on a fresh simulation and attaches a manager to
// the first endpoint. The order — fabric, packet tracer, telemetry, span
// tracer, fault plan, manager — is part of the contract: it fixes the
// draw order on the fabric stream and the order events are scheduled in.
// OnDiscoveryComplete is left to the driver.
func New(tp *topo.Topology, cfg Config) (*Rig, error) {
	if err := cfg.Shardable(); err != nil {
		return nil, err
	}
	r := &Rig{Topo: tp, RNG: Stream(cfg.Seed, StreamFabric), start: time.Now()}
	if cfg.Telemetry {
		r.Registry = telemetry.New()
	}
	if cfg.Spans {
		r.Spans = span.New(spanCap)
	}
	host := tp.Endpoints()[0]
	fcfg := fabric.Config{DeviceFactor: cfg.DeviceFactor}
	var err error
	if cfg.Regions > 1 {
		// The manager's endpoint seeds region 0: its engine is Engine(0).
		part, perr := tp.Partition(cfg.Regions, host)
		if perr != nil {
			return nil, perr
		}
		r.group = sim.NewShardGroup(part.Count, 0) // lookahead set by NewSharded
		r.group.SeedRNGs(Stream(cfg.Seed, StreamShards))
		r.Engine, r.path = r.group.Engine(0), r.group
		r.Fabric, err = fabric.NewSharded(r.group, part, tp, fcfg, r.RNG)
	} else {
		r.Engine = sim.NewEngine()
		r.path = r.Engine
		r.Fabric, err = fabric.New(r.Engine, tp, fcfg, r.RNG)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Trace != nil {
		r.Fabric.SetTracer(cfg.Trace)
	}
	if cfg.LinkTelemetry {
		r.Fabric.EnableTelemetry(r.Registry)
	}
	if r.Spans != nil {
		r.Fabric.SetSpanTracer(r.Spans)
	}
	if err := r.Fabric.SetFaultPlan(cfg.Faults); err != nil {
		return nil, err
	}
	r.HostSwitch, _, _ = tp.Peer(host, 0)
	r.Manager = r.AddManager(host, cfg.Manager)
	return r, nil
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

// RunFor drains the simulation for at most horizon of simulated time
// (unbounded if zero or less) and reports whether the queue emptied.
// Either way a bounded run leaves the clock at the horizon; events still
// queued there are the chaos oracle's "engine hung" signal.
func (r *Rig) RunFor(horizon sim.Duration) (drained bool) {
	deadline := sim.Never
	if horizon > 0 {
		deadline = r.Now().Add(horizon)
	}
	r.path.RunUntil(deadline)
	return r.Pending() == 0
}

// Now reads the simulation clock (between runs all regions agree on it);
// Pending counts the events still queued.
func (r *Rig) Now() sim.Time { return r.path.Now() }
func (r *Rig) Pending() int  { return r.path.Pending() }

// Processed counts the events fired so far, over all regions.
func (r *Rig) Processed() uint64 {
	if r.group != nil {
		return r.group.Processed()
	}
	return r.Engine.Processed
}

// Regions is the simulation width in use: 1 when sequential, else the
// partition's region count (at most Config.Regions).
func (r *Rig) Regions() int {
	if r.group != nil {
		return r.group.Shards()
	}
	return 1
}

// RegionStats describes a sharded run: the per-region split of
// Processed, the barrier rounds, and the region-rounds the lookahead
// bound held back. All zero on the sequential path.
func (r *Rig) RegionStats() (events []uint64, rounds, stalls uint64) {
	if r.group == nil {
		return nil, 0, 0
	}
	return r.group.RegionProcessed(), r.group.Rounds, r.group.Stalls
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
//
// A sequential rig schedules the toggle as an engine event. On a sharded
// rig an event touching both halves of a cross-region link would race,
// so Hotplug — called between runs, when the coordinator owns every
// region — advances all regions to the toggle's time and applies it.
func (r *Rig) Hotplug(at sim.Time, node topo.NodeID, down bool, fail func(error)) {
	apply := func(*sim.Engine) {
		if err := r.Toggle(node, down); err != nil {
			fail(err)
		}
	}
	if r.group != nil {
		r.group.RunUntil(at)
		apply(nil)
	} else {
		r.Engine.At(at, apply)
	}
}

// Snapshot publishes the totals kept outside the registry — fabric flap
// count, engine or shard-group statistics — and freezes it. Totals are
// republished, not added, so a daemon may call it on every scrape.
// It needs Config.Telemetry.
func (r *Rig) Snapshot() telemetry.Snapshot {
	r.Fabric.FinishTelemetry(r.Registry)
	if r.group != nil {
		r.group.RecordTelemetry(r.Registry)
	} else {
		r.Engine.RecordTelemetry(r.Registry, time.Since(r.start))
	}
	return r.Registry.Snapshot()
}
