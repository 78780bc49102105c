package fabric

import (
	"repro/internal/asi"
	"repro/internal/sim"
	"repro/internal/span"
)

// link is a full-duplex cable between two device ports, modelled as two
// independent half links, each with its own serializer occupancy and
// credit state.
type link struct {
	f     *Fabric
	idx   int // topology link index, keys per-link fault rules
	a, b  *Device
	aPort int
	bPort int
	up    bool
	// cut marks a link whose ends live in different regions of a sharded
	// fabric: deliveries and credit returns cross via the shard group's
	// mailboxes instead of the local engine.
	cut  bool
	half [2]halfLink // [0]: a->b, [1]: b->a
}

// halfLink is one direction of a link. Credits track the free receive
// buffer slots per VC at the far end; the sender consumes one per packet
// and the receiver returns it once the packet has left its input buffer.
//
// The transmit path is allocation-free in steady state: the VC queues are
// rings, the scheduled callbacks are package functions that take the half
// link (or the flight) as their argument, so a link binds no closures,
// and in-flight packets ride flight records pooled on the sending device.
type halfLink struct {
	l         *link
	dir       int // index in l.half: 0 sends a->b, 1 sends b->a
	busyUntil sim.Time
	queues    [asi.NumVCs]sim.Ring[*asi.Packet]
	credits   [asi.NumVCs]int

	// wake is the pending kickHalf event that re-runs the transmit
	// scheduler when the serializer frees while packets wait, if one is
	// armed. It lives on the sender's engine.
	wake sim.EventID
	// crossCredit returns a buffer slot across the shard boundary of a cut
	// link; nil on every other link. It runs on the sending region's
	// engine.
	crossCredit sim.ArgHandler
}

// sender returns the device that transmits in this direction.
func (h *halfLink) sender() *Device {
	if h.dir == 0 {
		return h.l.a
	}
	return h.l.b
}

// receiver returns the device, and its port, this direction delivers to.
func (h *halfLink) receiver() (*Device, int) {
	if h.dir == 0 {
		return h.l.b, h.l.bPort
	}
	return h.l.a, h.l.aPort
}

// flight is one packet in transit on a half link: the per-packet state an
// arrival event needs, pooled so sustained traffic schedules arrivals
// without allocating.
type flight struct {
	h    *halfLink
	pkt  *asi.Packet
	vc   asi.VCID
	next *flight
}

// kickHalf is the scheduled form of link.kick: the serializer of one
// direction came free.
func kickHalf(_ *sim.Engine, arg any) {
	h := arg.(*halfLink)
	h.l.kick(h.sender())
}

// deliverFlight completes a flight on the engine both ends share: the
// record returns to the sender's pool and the packet arrives.
func deliverFlight(_ *sim.Engine, arg any) {
	fl := arg.(*flight)
	h, pkt, vc := fl.h, fl.pkt, fl.vc
	sender := h.sender()
	fl.h, fl.pkt = nil, nil
	fl.next = sender.freeFlights
	sender.freeFlights = fl
	receiver, rxPort := h.receiver()
	receiver.arrive(rxPort, vc, pkt, h.l, h.dir)
}

// deliverCrossFlight completes a flight that crossed a shard boundary, on
// the receiving region's engine. The record is not pooled: the sender's
// pool is its own region's state.
func deliverCrossFlight(_ *sim.Engine, arg any) {
	fl := arg.(*flight)
	receiver, rxPort := fl.h.receiver()
	receiver.arrive(rxPort, fl.vc, fl.pkt, fl.h.l, fl.h.dir)
}

// init cables a's aPort to b's bPort as topology link idx.
func (l *link) init(f *Fabric, idx int, a *Device, aPort int, b *Device, bPort int) {
	*l = link{f: f, idx: idx, a: a, aPort: aPort, b: b, bPort: bPort}
	for i := range l.half {
		h := &l.half[i]
		h.l, h.dir = l, i
		for vc := range h.credits {
			h.credits[vc] = f.cfg.CreditsPerVC
		}
	}
}

// markCut marks a link that straddles a shard boundary and binds its
// credit returns, which cross as posted VC values.
func (l *link) markCut() {
	l.cut = true
	for i := range l.half {
		dirIdx := i
		l.half[i].crossCredit = func(_ *sim.Engine, arg any) {
			l.applyCredit(dirIdx, arg.(asi.VCID))
		}
	}
}

// halfFrom returns the transmit direction index for the given sender.
func (l *link) halfFrom(d *Device) int {
	if d == l.a {
		return 0
	}
	return 1
}

// otherEnd returns the device and port at the opposite end from d.
func (l *link) otherEnd(d *Device) (*Device, int) {
	if d == l.a {
		return l.b, l.bPort
	}
	return l.a, l.aPort
}

// portOf returns d's own port number on this link.
func (l *link) portOf(d *Device) int {
	if d == l.a {
		return l.aPort
	}
	return l.bPort
}

// setUp trains or drops the link, updating port activity and config
// spaces at both ends. Dropping the link discards queued packets and
// resets credits, as a retrain would.
func (l *link) setUp(up bool) {
	l.up = up
	for _, d := range []*Device{l.a, l.b} {
		port := l.portOf(d)
		peer, _ := l.otherEnd(d)
		active := up && d.Alive() && peer.Alive()
		d.setPortActive(port, active)
	}
	if !up {
		for i := range l.half {
			h := &l.half[i]
			sender := h.sender()
			for vc := range h.queues {
				l.f.spanFlushQueue(&h.queues[vc], sender, l.portOf(sender))
				h.queues[vc].Clear()
				h.credits[vc] = l.f.cfg.CreditsPerVC
			}
		}
	}
}

// send enqueues pkt for transmission from d over this link and starts the
// serializer if idle.
func (l *link) send(d *Device, pkt *asi.Packet) {
	if !l.up {
		l.f.dropTraced(DropInactivePort, d, l.portOf(d), pkt)
		return
	}
	if l.f.faultDrop(l, d, pkt) {
		return
	}
	h := &l.half[l.halfFrom(d)]
	vc := l.f.vcOf(pkt)
	if l.f.spans != nil {
		l.f.spanQueueStamp(pkt)
	}
	h.queues[vc].Push(pkt)
	l.kick(d)
}

// vcNames are the preformatted span names of each virtual channel, so
// recording a transmit or a stall never formats on the fly.
var vcNames = [asi.NumVCs]string{"vc=0", "vc=1", "vc=2"}

// kick runs the transmit scheduler for d's direction: while the serializer
// is idle, pick the highest-priority VC with both a queued packet and a
// credit, and put it on the wire. Management traffic (highest VC) always
// wins arbitration, which is the property the paper relies on when it
// states application traffic scarcely influences discovery time.
func (l *link) kick(d *Device) {
	e := d.eng
	dirIdx := l.halfFrom(d)
	h := &l.half[dirIdx]
	if h.busyUntil > e.Now() {
		if !e.Armed(h.wake) {
			h.wake = e.AtArg(h.busyUntil, kickHalf, h)
		}
		return
	}
	if !l.up || !d.Alive() {
		return
	}
	// Highest VC index first: VC2 is the management channel.
	for vc := asi.NumVCs - 1; vc >= 0; vc-- {
		if h.queues[vc].Len() == 0 {
			continue
		}
		if h.credits[vc] <= 0 {
			// Head-of-line packet starved for credits: the wire sits idle
			// (for this VC) solely because the receiver's buffer is full.
			if l.f.tel != nil {
				l.f.tel.linkStall.Inc(l.idx)
			}
			if l.f.spans != nil {
				l.f.spanInstant(span.KindStall, h.queues[vc].At(0), d, l.portOf(d), vcNames[vc])
			}
			continue
		}
		pkt := h.queues[vc].Pop()
		h.credits[vc]--
		if l.f.tel != nil {
			l.f.tel.linkTx.Inc(l.idx)
			l.f.tel.vcTx.Inc(vc)
		}
		ser := l.f.serialization(pkt.WireSize())
		h.busyUntil = e.Now().Add(ser)
		d.ctr.TxPackets++
		d.ctr.TxBytes += uint64(pkt.WireSize())
		extra := l.f.faultDelay(l)
		arrive := ser + l.f.cfg.Propagation + extra
		if l.f.spans != nil {
			l.f.spanWire(pkt, d, l.portOf(d), vc, arrive, extra)
		}
		if l.cut {
			// Cross-region hop: the arrival is at least Propagation (the
			// group lookahead) in the future, so posting it through the
			// mailbox is always conservative-safe.
			receiver, _ := l.otherEnd(d)
			l.f.group.Post(d.region, receiver.region, e.Now().Add(arrive),
				deliverCrossFlight, &flight{h: h, pkt: pkt, vc: asi.VCID(vc)})
		} else {
			fl := d.freeFlights
			if fl == nil {
				fl = &flight{}
			} else {
				d.freeFlights = fl.next
			}
			fl.h, fl.pkt, fl.vc = h, pkt, asi.VCID(vc)
			e.AfterArg(arrive, deliverFlight, fl)
		}
		// Serializer free again at busyUntil; try the next packet.
		e.AtArg(h.busyUntil, kickHalf, h)
		return
	}
}

// returnCredit hands a buffer slot back to the sender of the given
// direction and re-runs its transmit scheduler, since a packet may have
// been blocked on credits alone. On a cut link the credit rides back
// across the shard boundary with the cable propagation delay — the
// physical latency of the credit DLLP, and exactly the lookahead the
// conservative protocol needs; sequential links return it instantly, as
// before, so R=1 semantics are untouched.
func (l *link) returnCredit(dirIdx int, vc asi.VCID) {
	if !l.up {
		return
	}
	if l.cut {
		h := &l.half[dirIdx]
		receiver, _ := h.receiver()
		l.f.group.Post(receiver.region, h.sender().region,
			receiver.eng.Now().Add(l.f.cfg.Propagation), h.crossCredit, vc)
		return
	}
	l.applyCredit(dirIdx, vc)
}

// applyCredit restores a buffer slot on the sender side and re-kicks it.
func (l *link) applyCredit(dirIdx int, vc asi.VCID) {
	if !l.up {
		return
	}
	h := &l.half[dirIdx]
	if h.credits[vc] < l.f.cfg.CreditsPerVC {
		h.credits[vc]++
	}
	l.kick(h.sender())
}
