package core

import (
	"fmt"

	"repro/internal/span"
)

// Span instrumentation for the fabric manager. Every hook below is
// reached only behind a single `m.sp != nil` guard in the hot path, so
// disabled tracing costs one pointer compare and zero allocations — the
// same contract the telemetry hooks honor. The span topology mirrors
// the paper's FM timeline:
//
//	run (a discovery run or partial assimilation, or an upkeep round
//	│    such as event-route distribution; a request parents to its
//	│    own class's band, so a run and the rounds it overlaps stay apart)
//	└── request (one PI-4, issue to terminal completion/failure)
//	    ├── attempt (per transmission; retries nest under the SAME
//	    │            request with increasing Attempt numbers)
//	    ├── backoff (retry wait windows)
//	    ├── fm-queue / fm-service (FM serial-processor phases; the
//	    │            service span that *issued* a request carries the
//	    │            issuing request as parent, which is what lets the
//	    │            analyzer recover the causal dependency chain)
//	    └── per-hop fabric spans recorded by internal/fabric via the
//	        request ID stamped into the packet header
//
// The FM is a serial processor, so its service spans are disjoint; a
// request that begins at time t was issued by whichever work item was
// in service at t. span.Analyze exploits exactly that containment to
// extract the critical path without any extra bookkeeping here.

// beginRequestSpan opens the request span for a fresh (never-issued)
// request and parents it to its class's band: its upkeep round's, or the
// run's.
func (m *Manager) beginRequestSpan(req *request) {
	parent := m.runSpan
	if req.round != nil {
		parent = req.round.span
	}
	id := m.sp.Begin(span.KindRequest, parent, m.e.Now())
	if s := m.sp.Span(id); s != nil {
		s.Name = req.kind.label()
		if req.kind != reqProbeGeneral {
			s.Device = req.dsn.String()
		} else {
			// Probes target whatever answers beyond dsn's port; name the
			// near side of the link being explored.
			s.Device = fmt.Sprintf("%s:%d", req.dsn, req.port)
		}
	}
	req.span = id
}

// beginAttemptSpan opens one transmission attempt under its request.
func (m *Manager) beginAttemptSpan(req *request) {
	id := m.sp.Begin(span.KindAttempt, req.span, m.e.Now())
	if s := m.sp.Span(id); s != nil {
		s.Name = req.kind.label()
		s.Tag = req.tag
		s.Attempt = int(req.attempt)
	}
	req.attemptSpan = id
}

// recordWorkSpans records the FM queue-wait and service intervals of
// the work item that just finished processing, under the request it
// completes, else under the run's band. Called from completeWork before
// the item's side effects run, so the service span's ID precedes any
// request it issues.
func (m *Manager) recordWorkSpans(w work) {
	now := m.e.Now()
	start := now.Add(-m.curCost)
	parent := m.runSpan
	if w.req != nil && w.req.span != 0 {
		parent = w.req.span
	}
	if m.curEnqAt < start {
		m.sp.Complete(span.KindFMQueue, parent, m.curEnqAt, start, span.StatusOK)
	}
	id := m.sp.Complete(span.KindFMService, parent, start, now, span.StatusOK)
	if s := m.sp.Span(id); s != nil {
		s.Name = w.kind.label()
	}
}

// beginRunSpan opens a phase band and returns its ID.
func (m *Manager) beginRunSpan(name string) span.ID {
	id := m.sp.Begin(span.KindRun, 0, m.e.Now())
	if s := m.sp.Span(id); s != nil {
		s.Name = name
	}
	return id
}
