package core

import (
	"repro/internal/asi"
	"repro/internal/route"
)

// Recycling of the FM's per-request records. One discovery is tens of
// thousands of PI-4 round trips; each used to cost a request, a packet
// and a boxed payload in each direction. Every record now has exactly
// one owner at a time, and the owner that finishes with it hands it to
// the next use:
//
//   - A request is in exactly one of: the pending table, the work queue
//     (as a completion or a timeout), a retry-backoff event, or the free
//     list. It is released when its terminal completion or failure has
//     been applied; drivers must not keep a *request past the callback
//     that hands it to them.
//   - A PI-4 packet belongs to the FM until Inject, then to the fabric,
//     then to the device that services it — which sends the same packet
//     back as the completion — and to the FM again from HandlePacket on,
//     where it stays with its request: through the work queue, onto the
//     free list, and out again as the packet of the next request issued
//     from that record. After consume or HandlePacket returns, nobody but
//     the new owner may hold the packet.
//
// Packets the fabric drops, stale completions and cloned packets never
// come back; the garbage collector has them. The free list lives on the
// Manager, which runs on one region's engine, so the region-sharded path
// shares nothing through it.

// poisonReleased makes releaseRequest scramble the request and its packet
// instead of merely recycling them, so that a use after release changes
// a result or panics. Only tests set it.
var poisonReleased bool

// newRequest takes a request from the free list, or allocates one, and
// initializes it to init. The record's spare packet stays with it.
func (m *Manager) newRequest(init request) *request {
	if init.round == nil {
		m.runReqs++
	}
	r := m.freeReqs
	if r == nil {
		r = new(request)
	} else {
		m.freeReqs = r.next
		init.pkt = r.pkt
	}
	*r = init
	return r
}

// releaseRequest recycles a request whose terminal outcome has been
// applied, together with the completion packet it holds, if any.
func (m *Manager) releaseRequest(r *request) {
	if r.round == nil {
		m.runReqs--
	}
	*r = request{pkt: r.pkt, next: m.freeReqs}
	m.freeReqs = r
	if poisonReleased {
		poisonRequest(r)
	}
}

// poisonData is the payload data of every poisoned request.
var poisonData = []uint32{0xDEADBEEF}

// poisonRequest overwrites every field a stale reader could use, of the
// request and of its packet, with values no live record holds.
func poisonRequest(r *request) {
	*r = request{
		tag: ^uint32(0), kind: numReqKinds, dsn: ^asi.DSN(0), port: 0xff, attempt: 0xff,
		op: 0xff, offset: 0xffff, count: 0xff, data: poisonData,
		hop: route.Hop{Ports: 0xffff, In: 0xff, Out: 0xff},
		pkt: r.pkt, next: r.next,
	}
	if r.pkt == nil {
		return
	}
	p4 := r.pkt.Payload.(*asi.PI4)
	data := p4.Data[:cap(p4.Data)]
	for i := range data {
		data[i] = 0xDEADBEEF
	}
	*p4 = asi.PI4{Op: 0xff, Tag: ^uint32(0), Offset: 0xffff, Count: 0xff, ArrivalPort: 0xff, Data: data}
	r.pkt.Header = asi.RouteHeader{TurnPool: ^uint64(0), TurnPointer: 0xff, Dir: true, PI: 0xff}
	r.pkt.Span = ^uint64(0)
}
