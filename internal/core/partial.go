package core

import (
	"slices"

	"repro/internal/asi"
)

// Partial discovery — the paper's second future-work direction (section
// 5, citing the authors' earlier InfiniBand work): instead of discarding
// the topology database and rediscovering the entire fabric on every
// change, the FM explores only the portion of the network affected by the
// change.
//
//   - On a port-down report the FM removes the link from its database,
//     prunes whatever became unreachable, recomputes the source routes
//     that crossed the lost region, and validates each rerouted device
//     with a single general-information read.
//
//   - On a port-up report the FM probes through the newly active port and
//     lets the propagation-order engine expand from there; exploration
//     stops wherever it meets already-known devices, so only the new
//     region costs packets.

// partialRun distinguishes a localized assimilation run from a full
// discovery run (both set m.discovering).
func (m *Manager) beginPartialRun() {
	m.discovering = true
	m.partialRun = true
	if m.sp != nil {
		m.runSpan = m.beginRunSpan("partial")
	}
	m.res = Result{Algorithm: Partial, Start: m.e.Now()}
}

// handleEventPartial processes one PI-5 report under the Partial
// algorithm.
func (m *Manager) handleEventPartial(ev asi.PI5) {
	if m.partialSeq == nil {
		m.partialSeq = make(map[asi.DSN]uint32)
	}
	if last, ok := m.partialSeq[ev.Reporter]; ok && ev.Sequence <= last {
		return // stale duplicate
	}
	m.partialSeq[ev.Reporter] = ev.Sequence

	if m.assimEnabled() {
		// Coalesced mode: accepted reports debounce into one batched
		// partial run (assim.go) instead of each paying its own.
		m.coalesce(ev)
		return
	}

	if m.discovering && !m.partialRun {
		// A full (initial) discovery is running; fold the change into a
		// rerun.
		m.dirty = true
		return
	}
	rep := m.db.Node(ev.Reporter)
	if rep == nil || m.db.Node(m.dev.DSN) == nil {
		// Unknown reporter or no baseline topology: a localized update
		// is impossible, fall back to a full run.
		m.scheduleDiscovery()
		return
	}
	if !m.discovering {
		m.beginPartialRun()
	}
	switch ev.Code {
	case asi.PI5PortDown:
		m.partialDown(rep, int(ev.Port))
	case asi.PI5PortUp:
		m.partialUp(rep, int(ev.Port))
	}
}

// partialDown removes the lost link and repairs the database.
func (m *Manager) partialDown(rep *Node, port int) {
	if m.dropLink(rep, port) {
		m.refreshPaths()
	}
}

// dropLink applies a port-down report to the database — port flags and
// link removal — without repairing paths, so a coalesced batch can fold
// several losses into one refreshPaths pass. It reports whether a link
// was actually removed.
func (m *Manager) dropLink(rep *Node, port int) bool {
	rep = m.db.writable(rep.DSN)
	if port < rep.Ports {
		rep.PortActive[port] = false
	}
	l, ok := m.db.LinkAt(rep.DSN, port)
	if !ok {
		return false // other side reported first; already handled
	}
	m.db.RemoveLink(l)
	// Mark the far side's port inactive too, if that device survives.
	// RemoveLink has made its entry this database's own to write.
	otherDSN, otherPort := l.A, l.APort
	if otherDSN == rep.DSN && otherPort == port {
		otherDSN, otherPort = l.B, l.BPort
	}
	if other := m.db.Node(otherDSN); other != nil && otherPort < other.Ports {
		other.PortActive[otherPort] = false
	}
	return true
}

// partialUp probes through the newly active port.
func (m *Manager) partialUp(rep *Node, port int) {
	rep = m.db.writable(rep.DSN)
	if port < rep.Ports {
		rep.PortKnown[port] = true
		rep.PortActive[port] = true
	}
	if _, known := m.db.LinkAt(rep.DSN, port); known {
		return
	}
	if rep.DSN == m.dev.DSN {
		m.initialProbe()
		return
	}
	if rep.Type != asi.DeviceSwitch {
		return
	}
	m.probe(probeThrough(rep, port))
}

// refreshPaths recomputes every device's source route over the repaired
// database, prunes unreachable devices, and validates each rerouted
// device with one verification read. One tree serves the whole pass: the
// devices pruned along the way are exactly those the tree does not reach,
// so none of them lies on a surviving device's path. The tree and the
// route buffer are the Manager's, reused pass after pass; only a changed
// route is copied out of the buffer, into the node (and so into its
// verification request).
func (m *Manager) refreshPaths() {
	m.db.RebuildTree(&m.tree, m.dev.DSN)
	// Visit in DSN order, EachNode's: the order verifies are issued in is
	// part of the simulation.
	dsns := m.dsnBuf[:0]
	m.db.EachNode(func(n *Node) { dsns = append(dsns, n.DSN) })
	m.dsnBuf = dsns
	for _, dsn := range dsns {
		if dsn == m.dev.DSN {
			continue
		}
		p, arrive := m.tree.PathInto(m.pathBuf, dsn)
		if p == nil {
			m.removeNode(dsn)
			continue
		}
		m.pathBuf = p
		if slices.Equal(p, m.db.Node(dsn).Path) {
			continue
		}
		n := m.db.writable(dsn)
		n.Path = slices.Clone(p)
		n.ArrivalPort = arrive
		m.sendVerify(n)
	}
}

// sendVerify issues a general-information read along a device's new path
// to confirm it still answers there.
func (m *Manager) sendVerify(n *Node) {
	req := m.newRequest(request{kind: reqVerify, path: n.Path, dsn: n.DSN})
	m.send(req, asi.PI4{
		Op:     asi.PI4ReadRequest,
		Offset: asi.GeneralInfoOffset,
		Count:  asi.GeneralInfoBlocks,
	})
}

// onVerify folds a verification completion (or failure) back in: a device
// that does not answer on its recomputed route is dropped, which may
// cascade into further reroutes.
func (m *Manager) onVerify(req *request, resp *asi.PI4, ok bool) {
	n := m.db.writable(req.dsn)
	if n == nil {
		return
	}
	if ok && resp.Op == asi.PI4ReadCompletionData {
		if gi, err := asi.ParseGeneralInfo(resp.Data); err == nil && gi.DSN == req.dsn {
			n.Validated = m.e.Now()
			return // confirmed
		}
	}
	m.removeNode(req.dsn)
	m.refreshPaths()
}
