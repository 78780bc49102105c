package core

import (
	"slices"
	"sort"

	"repro/internal/asi"
	"repro/internal/sim"
)

// Continuous assimilation: the coalescing front-end to the Partial path.
//
// Per-event assimilation (handleEventPartial) pays one localized run per
// PI-5 report, which collapses under churn storms — N flaps on one link
// cost N runs even though only the final state matters. With
// Options.AssimWindow set, reports instead accumulate in a sim-timer
// debounce window: duplicate or superseded reports for the same
// (reporter, port) collapse to the final state, and one batched partial
// run walks the union of affected subtrees. The window slides with each
// arrival; assimBatchMax bounds it so a sustained event stream cannot
// postpone the flush forever.

// assimKey identifies the port a PI-5 report is about; later reports for
// the same key supersede earlier ones.
type assimKey struct {
	rep  asi.DSN
	port uint8
}

// assimEnabled reports whether the coalescing front-end is active.
func (m *Manager) assimEnabled() bool { return m.assimPending != nil }

// initAssim arms the coalescing state; called from NewManager when the
// options select it.
func (m *Manager) initAssim() {
	m.assimPending = make(map[assimKey]asi.PI5)
	m.assimFn = func(*sim.Engine) { m.queueAssimFlush() }
}

// coalesce absorbs one accepted (non-stale) PI-5 report into the pending
// batch and re-arms the debounce window.
func (m *Manager) coalesce(ev asi.PI5) {
	k := assimKey{rep: ev.Reporter, port: ev.Port}
	if m.tel != nil {
		m.tel.assimEvents.Inc()
		if m.assimEvents > 0 {
			m.tel.assimCoalesced.Inc()
		}
		if _, dup := m.assimPending[k]; dup {
			m.tel.assimSuperseded.Inc()
		}
	}
	m.assimPending[k] = ev
	m.assimEvents++
	if len(m.assimPending) >= assimBatchMax {
		m.queueAssimFlush()
		return
	}
	m.e.Cancel(m.assimID)
	m.assimID = m.e.After(m.opt.AssimWindow, m.assimFn)
}

// queueAssimFlush moves the pending batch into the FM's serial work queue
// (the flush pays FM processing time like any other work item). The
// debounce timer and the batch cap both land here; the assimQueued flag
// keeps them from enqueueing the flush twice.
func (m *Manager) queueAssimFlush() {
	m.e.Cancel(m.assimID)
	if m.assimQueued || len(m.assimPending) == 0 {
		return
	}
	m.assimQueued = true
	m.enqueue(work{kind: wFlush})
}

// dropAssimPending discards the pending batch because a full rediscovery
// is about to rebuild the database: the run observes the fabric's current
// state, which already reflects every batched change. Dirtying the run
// preserves the per-event guarantee that no accepted report is ever
// silently absorbed without a run covering it.
func (m *Manager) dropAssimPending() {
	if !m.assimEnabled() || len(m.assimPending) == 0 {
		return
	}
	for k := range m.assimPending {
		delete(m.assimPending, k)
	}
	m.assimEvents = 0
	m.e.Cancel(m.assimID)
	m.dirty = true
}

// applyAssimBatch drains the pending batch through one batched partial
// run: every down is applied first (link removals and port flags), the
// source routes are repaired once over the union of lost links, and the
// ups are probed last over the repaired database. Reporters the FM does
// not know (pruned meanwhile, or no baseline) fall back to a coalesced
// full rediscovery, exactly as a per-event report from them would.
func (m *Manager) applyAssimBatch() {
	m.assimQueued = false
	if len(m.assimPending) == 0 {
		return
	}
	events := m.assimEvents
	m.assimEvents = 0
	if m.tel != nil {
		m.tel.assimFlushes.Inc()
		m.tel.assimBatch.Observe(int64(events))
	}
	keys := make([]assimKey, 0, len(m.assimPending))
	for k := range m.assimPending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rep != keys[j].rep {
			return keys[i].rep < keys[j].rep
		}
		return keys[i].port < keys[j].port
	})
	batch := make([]asi.PI5, 0, len(keys))
	for _, k := range keys {
		batch = append(batch, m.assimPending[k])
		delete(m.assimPending, k)
	}

	if m.discovering && !m.partialRun {
		// A full (initial) discovery is mid-flight; fold the whole batch
		// into a rerun.
		m.dirty = true
		return
	}
	if m.db.Node(m.dev.DSN) == nil {
		m.scheduleDiscovery() // no baseline topology
		return
	}
	if !m.discovering {
		m.beginPartialRun()
	}
	m.res.Coalesced += events

	// Downs first: remove every lost link, then repair paths once.
	repaired := false
	for _, ev := range batch {
		if ev.Code != asi.PI5PortDown {
			continue
		}
		rep := m.db.Node(ev.Reporter)
		if rep == nil {
			m.scheduleDiscovery()
			continue
		}
		if m.dropLink(rep, int(ev.Port)) {
			repaired = true
		}
	}
	if repaired {
		m.refreshPaths()
	}
	// Ups last, over the repaired database: exploration expands from the
	// re-activated ports and stops wherever it meets known devices.
	for _, ev := range batch {
		if ev.Code != asi.PI5PortUp {
			continue
		}
		rep := m.db.Node(ev.Reporter)
		if rep == nil {
			m.scheduleDiscovery()
			continue
		}
		m.partialUp(rep, int(ev.Port))
	}
}

// AssimPending reports how many distinct (reporter, port) changes wait in
// the debounce window. Draining the simulation to quiescence empties it:
// the armed debounce timer fires inside the drain.
func (m *Manager) AssimPending() int { return len(m.assimPending) }

// ExpireReporters prunes PI-5 sequence cursors for devices no longer in
// the database — the dead-device expiry the daemon's step runs so the
// cursor map cannot grow without bound under steady-state churn (full
// rediscoveries rebuild the database but never touched the cursors).
// Call it at quiescence; a device that later rejoins kept its monotonic
// sequence counter, so accepting its next report fresh is safe.
func (m *Manager) ExpireReporters() int {
	n := 0
	for dsn := range m.partialSeq {
		if m.db.Node(dsn) == nil {
			delete(m.partialSeq, dsn)
			n++
		}
	}
	return n
}

// DBStaleness computes percentiles of per-node database staleness: the
// simulated time since each node's entry was last validated by contact
// with the device (probe, port read, or verify completion). The daemon
// keys its stale-region re-audit concern off the max and publishes the
// percentiles next to the RIB generation-lag SLO.
func (m *Manager) DBStaleness() (p50, p99, max sim.Duration) {
	if m.db.NumNodes() == 0 {
		return 0, 0, 0
	}
	now := m.e.Now()
	ages := m.ageBuf[:0]
	m.db.EachNode(func(n *Node) { ages = append(ages, now.Sub(n.Validated)) })
	slices.Sort(ages)
	m.ageBuf = ages
	return ages[len(ages)/2], ages[len(ages)*99/100], ages[len(ages)-1]
}

// RecordDBStaleness publishes the staleness percentiles as gauges; a
// no-op without telemetry.
func (m *Manager) RecordDBStaleness() {
	if m.tel == nil {
		return
	}
	p50, p99, max := m.DBStaleness()
	m.tel.stalenessP50.Set(int64(p50))
	m.tel.stalenessP99.Set(int64(p99))
	m.tel.stalenessMax.Set(int64(max))
}

// removeNode drops a device from the database and forgets its PI-5
// sequence cursor with it — the partial path's half of the unbounded-map
// fix (ExpireReporters covers devices dropped by full-run rebuilds). The
// cursor is safe to forget: sequence numbers are monotonic for the
// device's lifetime, so a rejoining device's next genuine report would
// have been accepted either way.
func (m *Manager) removeNode(dsn asi.DSN) {
	m.db.RemoveNode(dsn)
	delete(m.partialSeq, dsn)
}
