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

// DistResult measures one path-distribution round.
type DistResult struct {
	Start, End sim.Time
	Duration   sim.Duration
	// Writes is the number of PI-4 write requests issued, Failures how
	// many failed or timed out.
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

// DistributeEventRoutes writes the event route into every discovered
// device except the host, with all writes in flight concurrently (the FM
// is past discovery; programming is parallel like the Parallel
// algorithm). onDone fires once every write completed or failed.
func (m *Manager) DistributeEventRoutes(onDone func(DistResult)) {
	if m.discovering {
		panic("core: DistributeEventRoutes during discovery")
	}
	m.dist = &distState{res: DistResult{Start: m.e.Now()}, onDone: onDone}
	if m.sp != nil {
		m.dist.span = m.beginRunSpan("event-routes")
	}
	for _, n := range m.db.Nodes() {
		if n.DSN == m.dev.DSN {
			continue
		}
		pool, ptr, err := EventRouteFor(n)
		if err != nil {
			m.dist.res.Failures++
			continue
		}
		req := m.newRequest(request{kind: reqWrite, path: n.Path, dsn: n.DSN})
		payload := asi.PI4{
			Op:     asi.PI4WriteRequest,
			Offset: asi.EventRouteOffset(n.Ports),
			Data:   asi.EncodeEventRoute(pool, ptr),
		}
		sz := (&asi.Packet{Payload: &payload}).WireSize()
		if !m.send(req, payload) {
			m.dist.res.Failures++
			continue
		}
		m.dist.res.Writes++
		m.dist.res.BytesSent += uint64(sz)
		m.dist.outstanding++
	}
	if m.dist.outstanding == 0 {
		m.finishDist()
	}
}

// distState tracks an in-progress distribution round.
type distState struct {
	res         DistResult
	outstanding int
	onDone      func(DistResult)
	// span is the distribution round's phase band, zero unless span
	// tracing is on; the round's write requests parent to it.
	span span.ID
}

// onWriteDone is called by the Manager when a reqWrite completion (or
// timeout) has been processed.
func (m *Manager) onWriteDone(req *request, ok bool) {
	if m.dist == nil {
		return
	}
	if !ok {
		m.dist.res.Failures++
	}
	m.dist.outstanding--
	if m.dist.outstanding == 0 {
		m.finishDist()
	}
}

func (m *Manager) finishDist() {
	d := m.dist
	m.dist = nil
	if m.sp != nil {
		m.sp.End(d.span, m.e.Now(), span.StatusOK)
	}
	d.res.End = m.e.Now()
	d.res.Duration = d.res.End.Sub(d.res.Start)
	if d.onDone != nil {
		d.onDone(d.res)
	}
}
