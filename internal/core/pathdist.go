package core

import (
	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/span"
)

// Path distribution: after discovery the FM derives source routes from its
// topology database and programs the fabric. The paper lists "path
// determination between endpoints" among the FM's tasks (section 2) and
// names "dynamically distributing new paths to fabric endpoints after the
// occurrence of a topological change" as future work (section 5). This
// file implements event-route programming into every device, so PI-5
// reports can reach the FM; endpoint-pair routes are derived per
// generation by the serving layer (internal/fib).

// DistResult measures one path-distribution round: its own writes, which
// no discovery run counts, even one that overlaps the round.
type DistResult struct {
	Start, End sim.Time
	Duration   sim.Duration
	// Writes is the number of PI-4 write requests issued, Failures how
	// many failed or timed out; BytesSent counts every attempt's bytes.
	Writes, Failures int
	BytesSent        uint64
}

// EventRouteFor computes the turn-pool route a device must use to source
// PI-5 packets toward the FM, from the FM's own path to that device. For
// switches the route is prefixed with the switch's own traversal from the
// virtual ingress, matching the hardware convention in internal/fabric.
// It is a free function so the serving layer (internal/fib) can derive
// event-route tables from a database snapshot without a Manager.
func EventRouteFor(n *Node) (pool uint64, ptr uint8, err error) {
	// A route that encodes has at most one hop per turn-pool bit, so the
	// reversed path fits on the stack whenever it can succeed.
	var buf [asi.TurnPoolBits + 1]route.Hop
	rev := buf[:0]
	if n.Type == asi.DeviceSwitch {
		// The switch consumes its own first turn when originating; the
		// virtual-ingress convention matches the hardware model. When
		// the arrival port equals the virtual ingress this encodes the
		// legal maximal self-turn.
		rev = append(rev, hopThrough(n, asi.SourceVirtualIngress, n.ArrivalPort))
	}
	return route.Encode(route.AppendReverse(rev, n.Path))
}

// roundWindow caps an upkeep round's writes in flight. A write's timeout
// runs from its issue, so a round that issued everything at once would
// expire the writes still queued on the FM's own link.
const roundWindow = 4096

// DistributeEventRoutes writes the event route into every discovered
// device except the host, as one upkeep round with at most roundWindow
// writes in flight. Targets and routes are fixed here, so a run that
// opens mid-round changes nothing the round writes. onDone fires once
// every write completed or failed.
func (m *Manager) DistributeEventRoutes(onDone func(DistResult)) {
	if m.discovering {
		panic("core: DistributeEventRoutes during discovery")
	}
	r := &round{res: DistResult{Start: m.e.Now()}, onDone: onDone}
	if m.sp != nil {
		r.span = m.beginRunSpan("event-routes")
	}
	nodes := m.db.Nodes()
	r.todo = make([]eventRoute, 0, len(nodes))
	for _, n := range nodes {
		if n.DSN == m.dev.DSN {
			continue
		}
		pool, ptr, err := EventRouteFor(n)
		if err != nil {
			r.res.Failures++
			continue
		}
		r.todo = append(r.todo, eventRoute{path: n.Path, dsn: n.DSN, pool: pool, offset: asi.EventRouteOffset(n.Ports), ptr: ptr})
	}
	m.fill(r)
}

// round is one upkeep round: requests the FM sends to keep the fabric
// programmed, booked apart from any discovery run. Each of its requests
// points at it, so overlapping rounds keep their own books, and a run
// neither waits for a round's requests nor counts them.
type round struct {
	res    DistResult
	onDone func(DistResult)
	// span is the round's phase band, zero unless span tracing is on; the
	// round's requests parent to it.
	span span.ID
	// todo holds the writes not yet issued, inFlight those issued and not
	// yet resolved.
	todo     []eventRoute
	inFlight int
}

// eventRoute is one write of a round: the route programmed into dsn's
// event-route register, sent along path.
type eventRoute struct {
	path   route.Path
	dsn    asi.DSN
	pool   uint64
	offset uint16
	ptr    uint8
}

// fill issues r's next writes while its window has room, and finishes the
// round once nothing is left in flight.
func (m *Manager) fill(r *round) {
	for r.inFlight < roundWindow && len(r.todo) > 0 {
		w := r.todo[0]
		r.todo = r.todo[1:]
		req := m.newRequest(request{kind: reqWrite, path: w.path, dsn: w.dsn, round: r})
		if !m.send(req, asi.PI4{Op: asi.PI4WriteRequest, Offset: w.offset, Data: asi.EncodeEventRoute(w.pool, w.ptr)}) {
			r.res.Failures++
			continue
		}
		r.res.Writes++
		r.inFlight++
	}
	if r.inFlight > 0 {
		return
	}
	if m.sp != nil {
		m.sp.End(r.span, m.e.Now(), span.StatusOK)
	}
	r.res.End = m.e.Now()
	r.res.Duration = r.res.End.Sub(r.res.Start)
	if r.onDone != nil {
		r.onDone(r.res)
	}
}

// onWriteDone is called by the Manager when a reqWrite completion (or
// timeout) has been processed.
func (m *Manager) onWriteDone(req *request, ok bool) {
	r := req.round
	if !ok {
		r.res.Failures++
	}
	r.inFlight--
	m.fill(r)
}
