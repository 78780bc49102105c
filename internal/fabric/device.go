package fabric

import (
	"fmt"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topo"
)

// Device is an instantiated fabric device: a switch or an endpoint with
// its configuration space, ports and management-plane behaviour.
type Device struct {
	f     *Fabric
	ID    topo.NodeID
	Type  asi.DeviceType
	Label string
	DSN   asi.DSN
	// Config is the device's capability storage served over PI-4.
	Config *asi.ConfigSpace
	config asi.ConfigSpace // Config's storage

	// eng is the engine this device schedules on: the fabric's single
	// engine sequentially, its region's engine on the sharded path.
	// region and ctr are the matching partition index and per-region
	// counter block (0 and &f.counters[0] sequentially).
	eng    *sim.Engine
	region int
	ctr    *Counters

	ports   []devPort
	alive   bool
	handler Handler

	// PI-4 servicing is a single serial server per device, as profiled
	// in the paper: requests queue and are serviced one at a time in
	// T_Device each. The device owns a request packet from consume until
	// it transmits it back as the completion: waiting requests sit in
	// pi4Queue and the one in service parks in pi4Cur (nil when power was
	// lost under it) until the pi4ServiceDone event scheduled for it
	// fires, so servicing allocates nothing per request.
	pi4Queue sim.Ring[*asi.Packet]
	pi4Busy  bool
	pi4Cur   *asi.Packet

	// freeJobs pools the per-packet state of deferred cut-through routing
	// decisions, and freeFlights that of packets this device has put on a
	// wire inside its own region, so forwarding never allocates per hop.
	freeJobs    *routeJob
	freeFlights *flight

	pi5Seq uint32

	// RxPackets/RxBytes count packets delivered to (consumed by) this
	// device.
	RxPackets, RxBytes uint64
}

type devPort struct {
	link   *link
	active bool
}

// routeJob is the per-packet state of one deferred cut-through routing
// decision, pooled on the device.
type routeJob struct {
	d      *Device
	l      *link
	dirIdx int
	vc     asi.VCID
	pkt    *asi.Packet
	port   int
	next   *routeJob
}

// dsnBase offsets device serial numbers so they never collide with node
// IDs in logs.
const dsnBase asi.DSN = 0xA510_0000

// init builds the device for topology node n in place. ports and store
// are the device's shares of the fabric's port and config-block slabs.
func (d *Device) init(f *Fabric, n topo.Node, ports []devPort, store []uint32) error {
	dsn := dsnBase + asi.DSN(n.ID)
	region := 0
	if f.regionOf != nil {
		region = f.regionOf[n.ID]
	}
	*d = Device{
		f:      f,
		ID:     n.ID,
		Type:   n.Type,
		Label:  n.Label,
		DSN:    dsn,
		eng:    f.Engine,
		region: region,
		ctr:    &f.counters[region],
		ports:  ports,
		alive:  true,
	}
	// Endpoints are FM-capable: in this model any endpoint can host a
	// fabric manager.
	if err := d.config.Init(n.Type, dsn, n.Ports, 2176, n.Type == asi.DeviceEndpoint, store); err != nil {
		return fmt.Errorf("fabric: node %s: %w", n.Label, err)
	}
	d.Config = &d.config
	if f.group != nil {
		d.eng = f.group.Engine(region)
	}
	return nil
}

// pi4ServiceDone fires when a device's T_Device service interval ends.
func pi4ServiceDone(_ *sim.Engine, arg any) {
	d := arg.(*Device)
	if pkt := d.pi4Cur; pkt != nil {
		d.pi4Cur = nil
		d.completePI4(pkt)
	}
	d.startNextPI4()
}

// routeDeferred is the cut-through routing callback of every switch; the
// job names its device.
func routeDeferred(_ *sim.Engine, arg any) {
	j := arg.(*routeJob)
	j.d.routePending(j)
}

// Alive reports whether the device is powered and present in the fabric.
func (d *Device) Alive() bool { return d.alive }

// Ports returns the device's port count.
func (d *Device) Ports() int { return len(d.ports) }

// PortActive reports whether a port currently has a live link partner.
func (d *Device) PortActive(port int) bool {
	return port >= 0 && port < len(d.ports) && d.ports[port].active
}

// SetHandler attaches a management entity (fabric manager) to an endpoint.
func (d *Device) SetHandler(h Handler) {
	if d.Type != asi.DeviceEndpoint {
		panic("fabric: handlers attach to endpoints only")
	}
	d.handler = h
}

// setPortActive updates port state and the port-info capability blocks.
func (d *Device) setPortActive(port int, active bool) {
	if d.ports[port].active == active {
		return
	}
	d.ports[port].active = active
	info := asi.PortInfo{}
	if active {
		info = asi.PortInfo{Active: true, SpeedGbps: d.f.cfg.LinkBandwidthGbps, Width: 1}
	}
	if err := d.Config.SetPortState(port, info); err != nil {
		panic(err) // port index is internally generated
	}
}

// Inject transmits a packet from an endpoint into the fabric. Management
// entities use it to source PI-4 requests, FM-to-FM reports and
// heartbeats. Endpoints have a single port (port 0 in this model).
func (d *Device) Inject(pkt *asi.Packet) {
	if d.Type != asi.DeviceEndpoint {
		panic("fabric: Inject is for endpoints; switches forward only")
	}
	if d.f.spans != nil {
		d.f.spanInstant(span.KindInject, pkt, d, 0, "")
	}
	d.transmit(0, pkt)
}

// transmit puts pkt on the wire out the given port.
func (d *Device) transmit(port int, pkt *asi.Packet) {
	if !d.alive {
		d.f.dropTraced(DropDeadDevice, d, port, pkt)
		return
	}
	p := &d.ports[port]
	if p.link == nil || !p.active {
		d.f.dropTraced(DropInactivePort, d, port, pkt)
		return
	}
	p.link.send(d, pkt)
}

// arrive is called by the link when a packet has fully arrived at this
// device's port. The input buffer slot is returned to the sender once the
// device has routed the packet onward or consumed it.
func (d *Device) arrive(port int, vc asi.VCID, pkt *asi.Packet, l *link, dirIdx int) {
	e := d.eng
	if !d.alive || !l.up {
		d.f.dropTraced(DropDeadDevice, d, port, pkt)
		l.returnCredit(dirIdx, vc)
		return
	}
	switch d.Type {
	case asi.DeviceEndpoint:
		// Endpoints sink everything addressed to them.
		l.returnCredit(dirIdx, vc)
		d.consume(port, pkt)
	case asi.DeviceSwitch:
		// Cut-through routing decision after the header latency.
		j := d.freeJobs
		if j == nil {
			j = &routeJob{d: d}
		} else {
			d.freeJobs = j.next
		}
		j.l, j.dirIdx, j.vc, j.pkt, j.port = l, dirIdx, vc, pkt, port
		e.AfterArg(d.f.cfg.SwitchLatency, routeDeferred, j)
	}
}

// routePending completes a deferred cut-through routing decision: the
// input buffer slot goes back to the sender and the packet is routed (or
// dropped, if the switch died while the header was in flight).
func (d *Device) routePending(j *routeJob) {
	l, dirIdx, vc, pkt, port := j.l, j.dirIdx, j.vc, j.pkt, j.port
	j.l, j.pkt = nil, nil
	j.next = d.freeJobs
	d.freeJobs = j
	l.returnCredit(dirIdx, vc)
	if !d.alive {
		d.f.dropTraced(DropDeadDevice, d, port, pkt)
		return
	}
	d.routeAtSwitch(port, pkt)
}

// routeAtSwitch applies turn-pool routing to a packet at a switch.
func (d *Device) routeAtSwitch(port int, pkt *asi.Packet) {
	dec, err := route.SwitchRoute(&pkt.Header, len(d.ports), port)
	if err != nil {
		d.f.dropTraced(DropRouteError, d, port, pkt)
		return
	}
	if dec.Deliver {
		d.consume(port, pkt)
		return
	}
	d.transmit(dec.Out, pkt)
}

// consume delivers a packet to this device: PI-4 requests enter the
// config-space service queue; everything else goes to the attached
// management entity (on endpoints) or is discarded.
func (d *Device) consume(port int, pkt *asi.Packet) {
	d.RxPackets++
	d.RxBytes += uint64(pkt.WireSize())
	d.ctr.Delivered[pkt.Header.PI]++
	if d.f.spans != nil {
		d.f.spanInstant(span.KindDeliver, pkt, d, port, "")
	}
	if p4, ok := pkt.Payload.(*asi.PI4); ok && !p4.Op.IsCompletion() {
		// The completion reports the port the request arrived on; the
		// device knows it now, and stamping it here is all the queue
		// needs to remember beside the packet itself.
		p4.ArrivalPort = uint8(port)
		d.servicePI4(pkt)
		return
	}
	if d.handler != nil {
		d.handler.HandlePacket(port, pkt)
		return
	}
	// An unmanaged device is a plain data sink; nothing else has a taker.
	if _, ok := pkt.Payload.(asi.AppData); !ok {
		d.f.dropTraced(DropNoHandler, d, port, pkt)
	}
}

// servicePI4 hands a PI-4 request to the device's serial config-space
// server: straight into service if it is idle, else behind the requests
// already waiting.
func (d *Device) servicePI4(pkt *asi.Packet) {
	if d.f.spans != nil {
		d.f.spanQueueStamp(pkt)
	}
	if d.pi4Busy {
		d.pi4Queue.Push(pkt)
		return
	}
	d.startPI4(pkt)
}

func (d *Device) startNextPI4() {
	if d.pi4Queue.Len() == 0 {
		d.pi4Busy = false
		return
	}
	d.startPI4(d.pi4Queue.Pop())
}

func (d *Device) startPI4(pkt *asi.Packet) {
	d.pi4Busy = true
	d.pi4Cur = pkt
	d.eng.AfterArg(d.f.deviceService(), pi4ServiceDone, d)
}

// dropPI4 forgets every request the device holds, waiting or in service,
// as a power loss does. A pending pi4ServiceDone still fires and finds
// nothing to complete.
func (d *Device) dropPI4() {
	if d.f.spans != nil {
		for i := 0; i < d.pi4Queue.Len(); i++ {
			delete(d.f.queuedAt, d.pi4Queue.At(i))
		}
		delete(d.f.queuedAt, d.pi4Cur)
	}
	d.pi4Queue.Clear()
	d.pi4Cur = nil
}

// completePI4 executes the request against the config space and sends the
// packet back the way it came as the completion: header reversed and
// payload overwritten in place, out the port it arrived on. Tag, Offset,
// Count and the causal-trace span ID carry over untouched.
func (d *Device) completePI4(pkt *asi.Packet) {
	p4 := pkt.Payload.(*asi.PI4)
	port := int(p4.ArrivalPort)
	switch p4.Op {
	case asi.PI4ReadRequest:
		data, err := d.Config.ReadInto(p4.Data[:0], p4.Offset, p4.Count)
		if err != nil {
			p4.Op = asi.PI4ReadCompletionError
		} else {
			p4.Op = asi.PI4ReadCompletionData
		}
		p4.Data = data
	case asi.PI4WriteRequest:
		if err := d.Config.Write(p4.Offset, p4.Data); err != nil {
			p4.Op = asi.PI4WriteCompletionError
		} else {
			p4.Op = asi.PI4WriteCompletion
		}
		p4.Data = p4.Data[:0]
	case asi.PI4ClaimRequest:
		d.serviceClaim(p4)
	default:
		p4.Op = asi.PI4ReadCompletionError
		p4.Data = p4.Data[:0]
	}
	pkt.Header = pkt.Header.Reverse()
	pkt.Header.PI = asi.PI4DeviceManagement
	if d.f.spans != nil {
		// Device-side timeline: queue wait (if any) then the T_Device
		// service interval, both under the owning request; the completion
		// carries the span ID back so the return hops attribute too.
		now := d.eng.Now()
		start := now.Add(-d.f.deviceService())
		if queuedAt, ok := d.f.spanQueueTake(pkt); ok && queuedAt < start {
			d.f.spanComplete(span.KindDevQueue, pkt, queuedAt, start, d, port)
		}
		d.f.spanComplete(span.KindDevService, pkt, start, now, d, port)
	}
	d.transmit(port, pkt)
}

// serviceClaim atomically resolves a distributed-discovery ownership
// claim in place: Data = [generation, claimant]. A newer generation
// overwrites the stored owner; the completion always carries the
// resulting [generation, owner], so the requester learns whether it won.
func (d *Device) serviceClaim(p4 *asi.PI4) {
	claim := p4.Data
	p4.Op, p4.Data = asi.PI4ReadCompletionError, p4.Data[:0]
	if len(claim) < int(asi.OwnerBlocks) {
		return
	}
	claim = claim[:asi.OwnerBlocks]
	off := asi.OwnerOffset(len(d.ports))
	cur, err := d.Config.Read(off, asi.OwnerBlocks)
	if err != nil {
		return
	}
	if claim[0] > cur[0] {
		if err := d.Config.Write(off, claim); err != nil {
			return
		}
		cur = claim
	}
	p4.Op, p4.Data = asi.PI4ClaimCompletion, append(p4.Data, cur...)
}

// EmitPI5 sends a PI-5 event toward the FM using the event route the FM
// programmed into this device's config space. Without a valid route the
// event is silently unreportable (the state before first discovery).
func (d *Device) EmitPI5(code asi.PI5EventCode, port int) {
	blocks, err := d.Config.Read(asi.EventRouteOffset(len(d.ports)), asi.EventRouteBlocks)
	if err != nil {
		return
	}
	pool, ptr, valid := asi.DecodeEventRoute(blocks)
	if !valid {
		return
	}
	d.pi5Seq++
	pkt := &asi.Packet{
		Header: asi.RouteHeader{
			TurnPool:    pool,
			TurnPointer: ptr,
			PI:          asi.PI5EventReporting,
			TC:          asi.TCManagement,
		},
		Payload: asi.PI5{Code: code, Port: uint8(port), Reporter: d.DSN, Sequence: d.pi5Seq},
	}
	// The event leaves through any active port along its source route.
	// For endpoints that is port 0; switches source the packet at the
	// first hop of the encoded route, which by construction starts at
	// this device, so transmit out the port the route's first turn
	// selects. Switch-sourced PI-5 uses the same turn consumption as a
	// forwarded packet would, with an assumed virtual ingress port.
	if d.Type == asi.DeviceEndpoint {
		d.transmit(0, pkt)
		return
	}
	dec, err := route.SwitchRoute(&pkt.Header, len(d.ports), asi.SourceVirtualIngress)
	if err != nil || dec.Deliver {
		d.f.dropTraced(DropRouteError, d, asi.SourceVirtualIngress, pkt)
		return
	}
	d.transmit(dec.Out, pkt)
}
