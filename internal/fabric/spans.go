package fabric

import (
	"repro/internal/asi"
	"repro/internal/sim"
	"repro/internal/span"
)

// Span instrumentation for the fabric. An attached tracer records every
// packet's hops: injection, link queueing, wire traversal, credit
// stalls, fault delays, device queueing and servicing, delivery and
// drops, plus fault-plan link flaps. The FM stamps each PI-4 request's
// span ID into the packet (asi.Packet.Span); devices copy it into the
// completion, so both directions of a round trip parent their spans to
// the owning request. Untagged packets (PI-5 events, heartbeats,
// application traffic) record parentless spans. Every hook is behind a
// single `f.spans != nil` guard, so disabled tracing costs one nil check
// and zero allocations on the forwarding hot path.

// SetSpanTracer attaches a causal span tracer; nil detaches it. Attach
// the same tracer the Manager was built with (core.Options.Spans) so
// fabric spans land under the FM's request spans.
func (f *Fabric) SetSpanTracer(t *span.Tracer) {
	if t != nil && f.group != nil {
		panic("fabric: span tracing is unsupported with parallel regions")
	}
	f.spans = t
	if t != nil {
		f.queuedAt = make(map[*asi.Packet]sim.Time)
	} else {
		f.queuedAt = nil
	}
}

// spanHop records one span of a packet's journey under the request the
// packet is tagged with, or with no parent when it is untagged. pkt is
// nil for spans that belong to no packet (link flaps).
func (f *Fabric) spanHop(kind span.Kind, pkt *asi.Packet, start, end sim.Time, status span.Status, d *Device, port int, name string) {
	var parent span.ID
	if pkt != nil {
		parent = span.ID(pkt.Span)
	}
	s := f.spans.Span(f.spans.Complete(kind, parent, start, end, status))
	if s == nil {
		return
	}
	s.Name, s.Port = name, port
	if d != nil {
		s.Device = d.Label
	}
	if pkt != nil {
		s.PI, s.Bytes = uint8(pkt.Header.PI), uint32(pkt.WireSize())
		if s.PI == 0 && pkt.Payload != nil {
			s.PI = uint8(pkt.Payload.ProtocolInterface())
		}
	}
}

// spanComplete records one bounded fabric span of a packet.
func (f *Fabric) spanComplete(kind span.Kind, pkt *asi.Packet, start, end sim.Time, d *Device, port int) {
	f.spanHop(kind, pkt, start, end, span.StatusOK, d, port, "")
}

// spanInstant records a zero-length marker now.
func (f *Fabric) spanInstant(kind span.Kind, pkt *asi.Packet, d *Device, port int, name string) {
	now := f.Engine.Now()
	f.spanHop(kind, pkt, now, now, span.StatusInstant, d, port, name)
}

// spanDrop marks a packet as discarded. Any pending queue stamp dies
// with the packet.
func (f *Fabric) spanDrop(r DropReason, d *Device, port int, pkt *asi.Packet) {
	if f.spans == nil {
		return
	}
	delete(f.queuedAt, pkt)
	f.spanInstant(span.KindDrop, pkt, d, port, r.String())
}

// spanQueueStamp remembers when a packet entered a queue — a link's VC
// queue or a device's PI-4 service queue — so the pop side can emit a
// span for the time it waited.
func (f *Fabric) spanQueueStamp(pkt *asi.Packet) {
	f.queuedAt[pkt] = f.Engine.Now()
}

// spanQueueTake removes and returns a packet's queue stamp.
func (f *Fabric) spanQueueTake(pkt *asi.Packet) (sim.Time, bool) {
	q, ok := f.queuedAt[pkt]
	delete(f.queuedAt, pkt)
	return q, ok
}

// spanWire records the transmit-side spans of one link traversal: the
// queue wait (if any), the wire span covering serialization plus
// propagation plus any injected delay, named by its virtual channel, and
// a fault-delay marker when the plan delivered the packet late.
func (f *Fabric) spanWire(pkt *asi.Packet, d *Device, port, vc int, arrive, extra sim.Duration) {
	now := f.Engine.Now()
	if q, ok := f.spanQueueTake(pkt); ok && now > q {
		f.spanComplete(span.KindLinkQueue, pkt, q, now, d, port)
	}
	f.spanHop(span.KindWire, pkt, now, now.Add(arrive), span.StatusOK, d, port, vcNames[vc])
	if extra > 0 {
		f.spanInstant(span.KindFaultDelay, pkt, d, port, "delayed")
	}
}

// spanFlushQueue marks every packet still waiting in a VC queue as
// dropped — a link going down discards its queues, and the spans must say
// so rather than dangle.
func (f *Fabric) spanFlushQueue(q *sim.Ring[*asi.Packet], d *Device, port int) {
	if f.spans == nil {
		return
	}
	for i := 0; i < q.Len(); i++ {
		f.spanDrop(DropInactivePort, d, port, q.At(i))
	}
}
