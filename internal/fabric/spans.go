package fabric

import (
	"repro/internal/asi"
	"repro/internal/sim"
	"repro/internal/span"
)

// Span instrumentation for the fabric. The FM stamps each PI-4 request's
// span ID into the packet (asi.Packet.Span); devices copy it into the
// completion, so both directions of a round trip attribute their per-hop
// spans — link queueing, wire traversal, device queueing and servicing,
// credit stalls, fault delays and drops — to the owning request. Every
// hook is behind a single `f.spans != nil` guard (and most additionally
// skip untagged packets), so disabled tracing costs one nil check and
// zero allocations on the forwarding hot path.

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

// spanComplete records one bounded fabric span under a packet's request.
func (f *Fabric) spanComplete(kind span.Kind, pkt *asi.Packet, start, end sim.Time, d *Device, port int) {
	id := f.spans.Complete(kind, span.ID(pkt.Span), start, end, span.StatusOK)
	if s := f.spans.Span(id); s != nil {
		s.Device = d.Label
		s.Port = port
	}
}

// spanInstant records a zero-length marker under a packet's request.
func (f *Fabric) spanInstant(kind span.Kind, pkt *asi.Packet, d *Device, port int, name string) {
	id := f.spans.Instant(kind, span.ID(pkt.Span), f.Engine.Now())
	if s := f.spans.Span(id); s != nil {
		s.Name = name
		if d != nil {
			s.Device = d.Label
		}
		s.Port = port
	}
}

// spanDrop marks a traced packet as discarded. Any pending queue stamp
// dies with the packet.
func (f *Fabric) spanDrop(r DropReason, d *Device, port int, pkt *asi.Packet) {
	if f.spans == nil || pkt == nil || pkt.Span == 0 {
		return
	}
	delete(f.queuedAt, pkt)
	f.spanInstant(span.KindDrop, pkt, d, port, r.String())
}

// spanQueueStamp remembers when a traced packet entered a queue — a
// link's VC queue or a device's PI-4 service queue — so the pop side can
// emit a span for the time it waited.
func (f *Fabric) spanQueueStamp(pkt *asi.Packet) {
	if f.spans == nil || pkt.Span == 0 {
		return
	}
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
// propagation plus any injected delay, and a fault-delay marker when the
// plan delivered the packet late.
func (f *Fabric) spanWire(pkt *asi.Packet, d *Device, port int, arrive, extra sim.Duration) {
	if f.spans == nil || pkt.Span == 0 {
		return
	}
	now := f.Engine.Now()
	if q, ok := f.spanQueueTake(pkt); ok && now > q {
		f.spanComplete(span.KindLinkQueue, pkt, q, now, d, port)
	}
	f.spanComplete(span.KindWire, pkt, now, now.Add(arrive), d, port)
	if extra > 0 {
		f.spanInstant(span.KindFaultDelay, pkt, d, port, "delayed")
	}
}

// spanFlushQueue marks every traced packet still waiting in a VC queue
// as dropped — a link going down discards its queues, and the spans must
// say so rather than dangle.
func (f *Fabric) spanFlushQueue(q *sim.Ring[*asi.Packet], d *Device, port int) {
	if f.spans == nil {
		return
	}
	for i := 0; i < q.Len(); i++ {
		f.spanDrop(DropInactivePort, d, port, q.At(i))
	}
}
