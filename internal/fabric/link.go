package fabric

import (
	"repro/internal/asi"
	"repro/internal/sim"
	"repro/internal/span"
)

// link is a full-duplex cable between two device ports, modelled as two
// independent half links, each with its own serializer occupancy and
// credit state. A large fabric holds one per cable, so each field has the
// width its range needs: a topology has at most topo.MaxSize links and a
// device at most asi.MaxSwitchPorts ports.
type link struct {
	f     *Fabric
	a, b  *Device
	idx   int32 // topology link index, keys per-link fault rules
	aPort uint8
	bPort uint8
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
// A packet that finds the serializer idle, nothing queued and a credit
// free goes straight to the wire; only a packet that must wait allocates
// the VC queues, once per half link (85-95 % of a discovery's sends never
// wait). The transmit path is allocation-free in steady state: the VC
// queues are rings, the scheduled callbacks are package functions that
// take the half link (or the flight) as their argument, so a link binds
// no closures, and in-flight packets ride flight records pooled on the
// sending device.
type halfLink struct {
	l *link
	// busyUntil is when the serializer frees. Only transmit sets it, and
	// it schedules the kick for that instant in the same call, so a busy
	// serializer always has exactly one wake-up pending.
	busyUntil sim.Time
	q         *vcQueues // nil until a packet first has to wait
	credits   [asi.NumVCs]int32
	dir       uint8 // index in l.half: 0 sends a->b, 1 sends b->a
}

// vcQueues are a half link's per-VC transmit queues.
type vcQueues [asi.NumVCs]sim.Ring[*asi.Packet]

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
		return h.l.b, int(h.l.bPort)
	}
	return h.l.a, int(h.l.aPort)
}

// flight is one packet's hop: it is taken with the credit at transmit,
// rides the arrival event and, at a switch, the routing decision, and goes
// back with the credit when the receiver routes or consumes the packet.
// Records are pooled on the sending device, so sustained traffic forwards
// without allocating.
type flight struct {
	h    *halfLink
	pkt  *asi.Packet
	vc   asi.VCID
	next *flight
}

// kickHalf is the scheduled form of halfLink.kick: the serializer of one
// direction came free.
func kickHalf(_ *sim.Engine, arg any) {
	arg.(*halfLink).kick()
}

// deliverFlight lands a flight's packet at the receiver's port.
func deliverFlight(_ *sim.Engine, arg any) {
	fl := arg.(*flight)
	receiver, rxPort := fl.h.receiver()
	receiver.arrive(rxPort, fl)
}

// release ends a hop: the record goes back to the sender's pool and the
// credit to the sender. A flight over a cut link is not pooled: the
// sender's pool is its own region's state.
func (fl *flight) release() {
	h, vc := fl.h, fl.vc
	fl.h, fl.pkt = nil, nil
	if !h.l.cut {
		sender := h.sender()
		fl.next = sender.freeFlights
		sender.freeFlights = fl
	}
	h.l.returnCredit(int(h.dir), vc)
}

// init cables a's aPort to b's bPort as topology link idx.
func (l *link) init(f *Fabric, idx int, a *Device, aPort int, b *Device, bPort int) {
	*l = link{f: f, idx: int32(idx), a: a, aPort: uint8(aPort), b: b, bPort: uint8(bPort)}
	for i := range l.half {
		h := &l.half[i]
		h.l, h.dir = l, uint8(i)
		h.resetCredits()
	}
}

// resetCredits fills every VC's credits to the receiver's buffer size.
func (h *halfLink) resetCredits() {
	for vc := range h.credits {
		h.credits[vc] = int32(h.l.f.cfg.CreditsPerVC)
	}
}

// markCut marks a link that straddles a shard boundary and binds its
// credit returns, which cross as posted VC values, in the fabric's side
// table of cut half links.
func (l *link) markCut() {
	l.cut = true
	for i := range l.half {
		dirIdx := i
		l.f.crossCredit[&l.half[i]] = func(_ *sim.Engine, arg any) {
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
		return l.b, int(l.bPort)
	}
	return l.a, int(l.aPort)
}

// portOf returns d's own port number on this link.
func (l *link) portOf(d *Device) int {
	if d == l.a {
		return int(l.aPort)
	}
	return int(l.bPort)
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
			if h.q != nil {
				sender := h.sender()
				for vc := range h.q {
					l.f.spanFlushQueue(&h.q[vc], sender, l.portOf(sender))
					h.q[vc].Clear()
				}
			}
			h.resetCredits()
		}
	}
}

// queued reports whether a packet waits in any of h's VC queues.
func (h *halfLink) queued() bool {
	for vc := 0; h.q != nil && vc < len(h.q); vc++ {
		if h.q[vc].Len() > 0 {
			return true
		}
	}
	return false
}

// send transmits pkt from d over this link: straight onto an idle wire
// when nothing is queued ahead of it and a credit is free, else through
// its VC queue and the transmit scheduler.
func (l *link) send(d *Device, pkt *asi.Packet) {
	if !l.up {
		l.f.dropTraced(DropInactivePort, d, l.portOf(d), pkt)
		return
	}
	if l.f.faultDrop(l, d, pkt) {
		return
	}
	h := &l.half[l.halfFrom(d)]
	vc := vcOf(pkt)
	if l.f.spans != nil {
		l.f.spanQueueStamp(pkt)
	}
	// Exactly what kick would do with this packet alone in its queue: pop
	// it and put it on the wire.
	if !h.queued() && h.busyUntil <= d.eng.Now() && d.Alive() && h.credits[vc] > 0 {
		l.transmit(d, h, pkt, vc)
		return
	}
	if h.q == nil {
		h.q = new(vcQueues)
	}
	h.q[vc].Push(pkt)
	h.kick()
}

// vcNames are the preformatted span names of each virtual channel, so
// recording a transmit or a stall never formats on the fly.
var vcNames = [asi.NumVCs]string{"vc=0", "vc=1"}

// kick runs the transmit scheduler for h's direction: while the serializer
// is idle, pick the highest-priority VC with both a queued packet and a
// credit, and put it on the wire. Management traffic (highest VC) always
// wins arbitration, which is the property the paper relies on when it
// states application traffic scarcely influences discovery time. A busy
// serializer needs nothing: the transmission that made it busy scheduled
// the kick for the instant it frees.
func (h *halfLink) kick() {
	l, d := h.l, h.sender()
	if h.busyUntil > d.eng.Now() || !l.up || !d.Alive() || h.q == nil {
		return
	}
	// Highest VC index first: VC1 is the management channel.
	for vc := asi.NumVCs - 1; vc >= 0; vc-- {
		q := &h.q[vc]
		if q.Len() == 0 {
			continue
		}
		if h.credits[vc] <= 0 {
			// Head-of-line packet starved for credits: the wire sits idle
			// (for this VC) solely because the receiver's buffer is full.
			if l.f.tel != nil {
				l.f.tel.linkStall.Inc(int(l.idx))
			}
			if l.f.spans != nil {
				l.f.spanInstant(span.KindStall, q.At(0), d, l.portOf(d), vcNames[vc])
			}
			continue
		}
		l.transmit(d, h, q.Pop(), asi.VCID(vc))
		return
	}
}

// transmit spends one of h's credits on pkt and puts it on the wire in a
// flight record: the serializer is busy for its wire time, the arrival is
// scheduled past the cable, and a kick re-runs the scheduler when the
// serializer frees.
func (l *link) transmit(d *Device, h *halfLink, pkt *asi.Packet, vc asi.VCID) {
	e := d.eng
	h.credits[vc]--
	if l.f.tel != nil {
		l.f.tel.linkTx.Inc(int(l.idx))
		l.f.tel.vcTx.Inc(int(vc))
	}
	ser := l.f.serialization(pkt.WireSize())
	h.busyUntil = e.Now().Add(ser)
	d.ctr.TxPackets++
	d.ctr.TxBytes += uint64(pkt.WireSize())
	extra := l.f.faultDelay(l)
	arrive := ser + Propagation + extra
	if l.f.spans != nil {
		l.f.spanWire(pkt, d, l.portOf(d), int(vc), arrive, extra)
	}
	if l.cut {
		// Cross-region hop: the arrival is at least Propagation (the
		// group lookahead) in the future, so posting it through the
		// mailbox is always conservative-safe.
		receiver, _ := l.otherEnd(d)
		l.f.group.Post(d.region, receiver.region, e.Now().Add(arrive),
			deliverFlight, &flight{h: h, pkt: pkt, vc: vc})
	} else {
		fl := d.freeFlights
		if fl == nil {
			fl = &flight{}
		} else {
			d.freeFlights = fl.next
		}
		fl.h, fl.pkt, fl.vc = h, pkt, vc
		e.AfterArg(arrive, deliverFlight, fl)
	}
	// Serializer free again at busyUntil; try the next packet. This is
	// the only kick scheduled for that instant.
	e.AtArg(h.busyUntil, kickHalf, h)
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
			receiver.eng.Now().Add(Propagation), l.f.crossCredit[h], vc)
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
	if int(h.credits[vc]) < l.f.cfg.CreditsPerVC {
		h.credits[vc]++
	}
	h.kick()
}
