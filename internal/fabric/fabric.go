// Package fabric is the executable model of an ASI switched fabric: x1
// links with credit-based flow control, multiplexed virtual cut-through
// switches, endpoints, per-device configuration spaces served over PI-4,
// PI-5 event reporting on port state changes, and device hot addition and
// removal. It corresponds to the physical/link-layer OPNET model of the
// paper (section 4.1), rebuilt on the deterministic event engine in
// internal/sim.
package fabric

import (
	"fmt"

	"repro/internal/asi"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topo"
)

// Config sets the physical and timing parameters of the fabric model.
type Config struct {
	// LinkBandwidthGbps is the usable link bandwidth. The ASI x1 default
	// is 2.0 Gbps (2.5 Gbps raw minus 8b/10b overhead).
	LinkBandwidthGbps float64
	// Propagation is the cable flight time per link.
	Propagation sim.Duration
	// SwitchLatency is the header routing time of a cut-through switch.
	SwitchLatency sim.Duration
	// DeviceProcessing is the base time a fabric device needs to service
	// one PI-4 request (T_Device in the paper's Fig. 7b); the paper
	// observes it is small and independent of algorithm and fabric size.
	DeviceProcessing sim.Duration
	// DeviceFactor is the device processing-speed multiplier from the
	// paper's Figs. 8-9: service time = DeviceProcessing / DeviceFactor.
	DeviceFactor float64
	// CreditsPerVC is the per-VC receive buffer capacity, in packets, a
	// port advertises to its link partner.
	CreditsPerVC int
	// DetectDelay is the time a device needs to notice a local port
	// state change before it can emit a PI-5 event.
	DetectDelay sim.Duration
}

// DefaultConfig returns the parameters used throughout the paper's
// experiments (factors 1).
func DefaultConfig() Config {
	return Config{
		LinkBandwidthGbps: asi.LinkEffectiveGbps,
		Propagation:       25 * sim.Nanosecond,
		SwitchLatency:     100 * sim.Nanosecond,
		DeviceProcessing:  2 * sim.Microsecond,
		DeviceFactor:      1,
		CreditsPerVC:      8,
		DetectDelay:       1 * sim.Microsecond,
	}
}

// withDefaults fills zero fields with defaults so partially specified
// configs behave.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LinkBandwidthGbps <= 0 {
		c.LinkBandwidthGbps = d.LinkBandwidthGbps
	}
	if c.Propagation <= 0 {
		c.Propagation = d.Propagation
	}
	if c.SwitchLatency <= 0 {
		c.SwitchLatency = d.SwitchLatency
	}
	if c.DeviceProcessing <= 0 {
		c.DeviceProcessing = d.DeviceProcessing
	}
	if c.DeviceFactor <= 0 {
		c.DeviceFactor = d.DeviceFactor
	}
	if c.CreditsPerVC <= 0 {
		c.CreditsPerVC = d.CreditsPerVC
	}
	if c.DetectDelay <= 0 {
		c.DetectDelay = d.DetectDelay
	}
	return c
}

// DropReason classifies discarded packets.
type DropReason int

const (
	// DropDeadDevice: the packet arrived at or was sent by a removed
	// device.
	DropDeadDevice DropReason = iota
	// DropInactivePort: the egress port has no live link partner.
	DropInactivePort
	// DropRouteError: the turn pool was exhausted or encoded an invalid
	// turn.
	DropRouteError
	// DropNoHandler: a management packet reached an endpoint with no
	// attached management entity.
	DropNoHandler
	// DropFaultInjected: the installed FaultPlan discarded the packet.
	DropFaultInjected
	numDropReasons
)

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropDeadDevice:
		return "dead-device"
	case DropInactivePort:
		return "inactive-port"
	case DropRouteError:
		return "route-error"
	case DropNoHandler:
		return "no-handler"
	case DropFaultInjected:
		return "fault-injected"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Counters aggregates fabric-wide accounting.
type Counters struct {
	// TxPackets/TxBytes count link transmissions (per hop).
	TxPackets, TxBytes uint64
	// Delivered counts packets consumed by a device, per PI.
	Delivered map[asi.PI]uint64
	// Drops counts discarded packets by reason.
	Drops [numDropReasons]uint64
	// FaultDelays counts traversals the installed FaultPlan delivered
	// late; LinkFlaps counts flap windows that actually took a link down.
	FaultDelays uint64
	LinkFlaps   uint64
}

// Handler is a management entity attached to an endpoint (a fabric
// manager). The fabric calls it for every management packet delivered to
// the endpoint that the endpoint's own PI-4 configuration servicing does
// not consume: PI-4 completions, PI-5 events, FM reports and heartbeats.
type Handler interface {
	HandlePacket(arrivalPort int, pkt *asi.Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(arrivalPort int, pkt *asi.Packet)

// HandlePacket implements Handler.
func (h HandlerFunc) HandlePacket(arrivalPort int, pkt *asi.Packet) { h(arrivalPort, pkt) }

// Fabric is an instantiated ASI network bound to a simulation engine —
// or, on the parallel path, to one engine per fabric region coordinated
// by a sim.ShardGroup.
type Fabric struct {
	// Engine is the engine sequential fabrics run on. On a sharded fabric
	// it aliases region 0's engine (the FM host's region), so management
	// entities attached to the host schedule on the right queue either
	// way.
	Engine *sim.Engine
	Topo   *topo.Topology
	cfg    Config
	rng    *sim.RNG

	// devices points into one slab of Device records and links is the
	// slab of link records; build sizes both, and the port and
	// config-block slabs the devices share, from the topology.
	devices []*Device
	links   []link

	// group coordinates the per-region engines on the parallel path; nil
	// on the sequential path. regionOf maps NodeID to region (nil when
	// sequential).
	group    *sim.ShardGroup
	regionOf []int

	// counters holds one accounting block per region so hot-path
	// increments never cross a shard boundary; sequential fabrics use a
	// single block. Counters() merges them.
	counters []Counters
	faults   *faultState
	tel      *fabricTelemetry

	// spans is the causal span tracer (SetSpanTracer), nil when
	// detached; queuedAt stamps when packets entered the queue they
	// wait in (a packet is in one at a time), allocated only while
	// spans is set.
	spans    *span.Tracer
	queuedAt map[*asi.Packet]sim.Time
}

// New instantiates the fabric described by t on the given engine. All
// devices power up alive with their cabled ports active. The topology must
// validate.
func New(e *sim.Engine, t *topo.Topology, cfg Config, rng *sim.RNG) (*Fabric, error) {
	return build(e, nil, nil, t, cfg, rng)
}

// NewSharded instantiates the fabric across the regions of a partition,
// one shard-group engine per region, for conservative parallel
// simulation. Each device schedules exclusively on its region's engine;
// links whose ends straddle regions hand packets (and credits) over
// through the group's barrier-synchronized mailboxes, with the cable
// propagation delay as the lookahead. The group's lookahead and region
// distances are configured here from the partition.
//
// The sharded path trades instrumentation for parallelism: telemetry,
// span tracing, fault plans and the traffic generator are unsupported
// (the respective setters reject them), so the simulated discovery
// behaviour — and the resulting FM database — is bit-identical to the
// sequential path.
func NewSharded(g *sim.ShardGroup, part *topo.Partition, t *topo.Topology, cfg Config, rng *sim.RNG) (*Fabric, error) {
	if part.Count != g.Shards() {
		return nil, fmt.Errorf("fabric: partition has %d regions, shard group %d", part.Count, g.Shards())
	}
	if len(part.Region) != len(t.Nodes) {
		return nil, fmt.Errorf("fabric: partition covers %d nodes, topology has %d", len(part.Region), len(t.Nodes))
	}
	f, err := build(g.Engine(0), g, part.Region, t, cfg, rng)
	if err != nil {
		return nil, err
	}
	g.SetLookahead(f.cfg.Propagation)
	g.SetDistances(part.RegionDistances(t))
	for _, li := range part.CutLinks {
		f.links[li].markCut()
	}
	return f, nil
}

// build is the shared constructor; group and regionOf are nil on the
// sequential path.
func build(e *sim.Engine, group *sim.ShardGroup, regionOf []int, t *topo.Topology, cfg Config, rng *sim.RNG) (*Fabric, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = sim.NewRNG(1)
	}
	f := &Fabric{
		Engine:   e,
		Topo:     t,
		cfg:      cfg.withDefaults(),
		rng:      rng,
		group:    group,
		regionOf: regionOf,
		devices:  make([]*Device, len(t.Nodes)),
		links:    make([]link, len(t.Links)),
	}
	regions := 1
	if group != nil {
		regions = group.Shards()
	}
	f.counters = make([]Counters, regions)
	for i := range f.counters {
		f.counters[i].Delivered = make(map[asi.PI]uint64)
	}
	var nPorts, nBlocks int
	for _, n := range t.Nodes {
		nPorts += n.Ports
		nBlocks += asi.HeadBlocks(n.Ports)
	}
	devices := make([]Device, len(t.Nodes))
	ports := make([]devPort, nPorts)
	blocks := make([]uint32, nBlocks)
	for i, n := range t.Nodes {
		d := &devices[i]
		nb := asi.HeadBlocks(n.Ports)
		// Capacities end with each device's own share of the slabs.
		if err := d.init(f, n, ports[:n.Ports:n.Ports], blocks[:nb:nb]); err != nil {
			return nil, err
		}
		ports, blocks = ports[n.Ports:], blocks[nb:]
		f.devices[i] = d
	}
	for i, l := range t.Links {
		lk := &f.links[i]
		lk.init(f, i, f.devices[l.A], l.APort, f.devices[l.B], l.BPort)
		f.devices[l.A].ports[l.APort].link = lk
		f.devices[l.B].ports[l.BPort].link = lk
	}
	// Train every cabled link: ports become active, config spaces updated.
	for i := range f.links {
		f.links[i].setUp(true)
	}
	return f, nil
}

// Config returns the fabric's effective configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Device returns the device instantiated for a topology node.
func (f *Fabric) Device(id topo.NodeID) *Device { return f.devices[id] }

// Devices returns all devices in node-ID order.
func (f *Fabric) Devices() []*Device { return f.devices }

// Counters returns a snapshot of fabric-wide accounting, merged across
// regions on the sharded path. Every field is a sum, so the merge is
// independent of region count.
func (f *Fabric) Counters() Counters {
	var c Counters
	c.Delivered = make(map[asi.PI]uint64, len(f.counters[0].Delivered))
	for i := range f.counters {
		r := &f.counters[i]
		c.TxPackets += r.TxPackets
		c.TxBytes += r.TxBytes
		c.FaultDelays += r.FaultDelays
		c.LinkFlaps += r.LinkFlaps
		for k, v := range r.Delivered {
			c.Delivered[k] += v
		}
		for j := range r.Drops {
			c.Drops[j] += r.Drops[j]
		}
	}
	return c
}

// AliveReachableFrom counts devices currently alive and reachable from the
// given endpoint over live links — the "active and reachable devices"
// x-axis of the paper's Fig. 6(a).
func (f *Fabric) AliveReachableFrom(id topo.NodeID) int {
	start := f.devices[id]
	if !start.Alive() {
		return 0
	}
	seen := map[*Device]bool{start: true}
	queue := []*Device{start}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		for p := range d.ports {
			pt := &d.ports[p]
			if pt.link == nil || !pt.link.up {
				continue
			}
			peer, _ := pt.link.otherEnd(d)
			if peer.Alive() && !seen[peer] {
				seen[peer] = true
				queue = append(queue, peer)
			}
		}
	}
	return len(seen)
}

// serialization returns the wire time of size bytes on a link.
func (f *Fabric) serialization(size int) sim.Duration {
	bits := float64(size * 8)
	ns := bits / f.cfg.LinkBandwidthGbps // Gbps: bits/ns
	return sim.Nanos(ns)
}

// deviceService returns the effective PI-4 service time at a fabric
// device under the configured speed factor.
func (f *Fabric) deviceService() sim.Duration {
	return f.cfg.DeviceProcessing.Scale(1 / f.cfg.DeviceFactor)
}

// drop accounts a discarded packet with no device context (region 0;
// only reachable on the sequential path).
func (f *Fabric) drop(r DropReason) { f.dropIn(&f.counters[0], r) }

// dropIn accounts a discarded packet against a specific region's block.
func (f *Fabric) dropIn(c *Counters, r DropReason) {
	c.Drops[r]++
	if f.tel != nil {
		f.tel.drops.Inc(int(r))
	}
}

// dropTraced accounts and traces a discarded packet with context.
func (f *Fabric) dropTraced(r DropReason, d *Device, port int, pkt *asi.Packet) {
	f.dropIn(d.ctr, r)
	f.spanDrop(r, d, port, pkt)
}

// vcOf maps a packet to its virtual channel: multicast always rides the
// MVC, unicast follows the TC/VC mapping table.
func (f *Fabric) vcOf(pkt *asi.Packet) asi.VCID {
	if pkt.Header.Multicast {
		return asi.VCMulticast
	}
	m := asi.DefaultTCtoVC()
	return m[pkt.Header.TC&asi.MaxTrafficClass]
}
