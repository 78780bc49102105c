package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Event kinds the daemon logs. The serving layer's own kinds
// (rib.EventOverflow, rib.EventResync) pass through verbatim.
const (
	// EventDiscoveryStart marks the FM starting a discovery run (the
	// bootstrap, or a forced audit).
	EventDiscoveryStart = "discovery.start"
	// EventDiscoveryConverge marks a discovery run completing and its
	// database installing into the RIB.
	EventDiscoveryConverge = "discovery.converge"
	// EventChurnApply marks one churn round's toggles entering the
	// fabric.
	EventChurnApply = "churn.apply"
	// EventChurnError marks a churn toggle the fabric refused (the
	// device already was in the requested state).
	EventChurnError = "churn.error"
	// EventAudit marks a forced full rediscovery being scheduled.
	EventAudit = "audit"
)

// Event is one structured entry of the bounded NDJSON event log.
type Event struct {
	// Wall is the wall-clock instant the event was logged.
	Wall time.Time `json:"wall"`
	// SimPS is the simulation clock at the event, in picoseconds (0
	// when the producer had no simulation context).
	SimPS int64 `json:"sim_ps,omitempty"`
	// Gen is the RIB generation current at the event.
	Gen uint64 `json:"gen"`
	// Kind names the event (the constants above, or a rib.Event*).
	Kind string `json:"kind"`
	// Detail is an optional human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// eventLog is a bounded ring of events. Appends never block and never
// grow memory past the capacity; old entries are evicted and counted.
type eventLog struct {
	mu   sync.Mutex
	ring []Event
	head int
	n    int
	seen uint64
}

func newEventLog(capacity int) *eventLog {
	return &eventLog{ring: make([]Event, capacity)}
}

func (l *eventLog) append(e Event) {
	l.mu.Lock()
	l.ring[l.head] = e
	l.head = (l.head + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.seen++
	l.mu.Unlock()
}

// tail returns the most recent min(n, retained) events, oldest first.
func (l *eventLog) tail(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.n {
		n = l.n
	}
	out := make([]Event, 0, n)
	for i := l.n - n; i < l.n; i++ {
		out = append(out, l.ring[(l.head-l.n+i+2*len(l.ring))%len(l.ring)])
	}
	return out
}

func (l *eventLog) logged() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}

func (l *eventLog) dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen - uint64(l.n)
}

// EventsHandler serves the event-log tail as NDJSON: one JSON event per
// line, oldest first. ?n= bounds the tail (default 100).
func (p *Plane) EventsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 100
		if q := req.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, e := range p.Events(n) {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
	})
}
