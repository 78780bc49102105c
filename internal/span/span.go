// Package span is a causal tracer for the discovery process: where
// internal/telemetry aggregates histograms, span records the *life* of
// every FM-issued PI-4 request — issue, per-hop wire time, switch
// queueing, device servicing, timeout, retry, completion — as begin/end
// intervals with parent links. From a span log the paper's FM
// packet-processing timeline (Figs. 5-7) is reconstructed per request: a
// Gantt row decomposing the round trip into FM processing, wire, queueing
// and device time, plus the critical path of dependent requests that
// determines total discovery time.
//
// The fabric records the hops of every packet, not only the FM's: an
// untagged packet's spans (PI-5 events, heartbeats, application traffic)
// carry no parent, and Analyze leaves them out of every run. WritePackets
// reads the same log as a flat packet-event listing (asidisc -trace).
//
// Tracing is opt-in and non-perturbing: every hook in core and fabric is
// guarded by a single nil check, so a disabled tracer costs no
// allocations and changes no simulated metric (the fingerprint tests in
// internal/experiment prove both properties).
package span

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// ID identifies one span within a Tracer's log. IDs are assigned
// monotonically from 1 in begin order, so a parent's ID is always smaller
// than any child's. The zero ID means "no span" (disabled tracer, capped
// log, or no parent) and every Tracer method accepts it as a no-op.
type ID uint64

// Kind classifies what interval of the discovery process a span covers.
type Kind uint8

const (
	// KindRun is a phase band: one discovery run (or path-distribution
	// round) from start to finish. Request spans parent to it.
	KindRun Kind = iota
	// KindRequest is the full life of one FM-issued PI-4 request: first
	// issue to final completion processing or terminal failure. Every
	// other per-request span descends from it.
	KindRequest
	// KindAttempt is one transmission attempt of a request: issue to
	// completion arrival or timeout expiry. Retries are further Attempt
	// spans under the same request, with increasing Attempt numbers.
	KindAttempt
	// KindBackoff is the wait between a timed-out attempt and its retry.
	KindBackoff
	// KindFMQueue is a work item waiting in the FM's serial processor
	// queue before service begins.
	KindFMQueue
	// KindFMService is the FM software processing one work item (the
	// per-packet cost of the paper's Fig. 4).
	KindFMService
	// KindLinkQueue is a packet waiting in a VC ring for link
	// arbitration (serializer busy or credit-starved).
	KindLinkQueue
	// KindWire is one link traversal: serialization plus propagation
	// (plus any fault-injected delivery delay).
	KindWire
	// KindDevQueue is a PI-4 request waiting in a device's serial
	// config-space server queue.
	KindDevQueue
	// KindDevService is a device servicing one PI-4 request (T_Device in
	// the paper's Fig. 7b).
	KindDevService
	// KindStall marks an instant at which a head-of-line packet was
	// starved for credits: the wire sat idle only because the receiver's
	// buffer was full.
	KindStall
	// KindFaultDelay marks a traversal the installed fault plan
	// delivered late.
	KindFaultDelay
	// KindDrop marks the instant the fabric discarded a packet; Name is
	// the drop reason.
	KindDrop
	// KindInject marks an endpoint putting a packet into the fabric.
	KindInject
	// KindDeliver marks a device consuming a packet.
	KindDeliver
	// KindFlap marks a fault-plan link flap going down or coming back
	// up; Name says which, and for how long.
	KindFlap
	numKinds
)

// kindNames indexes the canonical name of every kind; an exhaustiveness
// test keeps it in sync with the constants.
var kindNames = [numKinds]string{
	"run", "request", "attempt", "backoff",
	"fm-queue", "fm-service", "link-queue", "wire",
	"dev-queue", "dev-service", "stall", "fault-delay", "drop",
	"inject", "deliver", "flap",
}

// String names the kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindByName reverses String; unknown names report false.
func KindByName(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind by name, keeping the run-report spans
// section and the Chrome trace args human-readable.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts both the name and the numeric form of a known
// kind, so what it accepts MarshalJSON writes back as a name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, ok := KindByName(s)
		if !ok {
			return fmt.Errorf("span: unknown kind %q", s)
		}
		*k = v
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil || Kind(n) >= numKinds {
		return fmt.Errorf("span: kind must be a name or the number of one: %s", b)
	}
	*k = Kind(n)
	return nil
}

// Status is the terminal state of a span.
type Status uint8

const (
	// StatusOpen: the span has begun and not yet ended. No span in a
	// finished run's log should carry it.
	StatusOpen Status = iota
	// StatusOK: the interval completed normally.
	StatusOK
	// StatusTimeout: the request or attempt expired without completion.
	StatusTimeout
	// StatusGaveUp: the request exhausted every retry and was abandoned.
	StatusGaveUp
	// StatusError: the interval ended in a protocol or routing error.
	StatusError
	// StatusDropped: the packet behind the span was discarded.
	StatusDropped
	// StatusCanceled: a superseding discovery run orphaned the span.
	StatusCanceled
	// StatusInstant: the span is a zero-length marker, not an interval.
	StatusInstant
	numStatuses
)

var statusNames = [numStatuses]string{
	"open", "ok", "timeout", "gave-up", "error", "dropped", "canceled", "instant",
}

// String names the status.
func (s Status) String() string {
	if s < numStatuses {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// StatusByName reverses String; unknown names report false.
func StatusByName(n string) (Status, bool) {
	for s, name := range statusNames {
		if name == n {
			return Status(s), true
		}
	}
	return 0, false
}

// MarshalJSON renders the status by name.
func (s Status) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts both the name and the numeric form of a known
// status.
func (s *Status) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err == nil {
		v, ok := StatusByName(str)
		if !ok {
			return fmt.Errorf("span: unknown status %q", str)
		}
		*s = v
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil || Status(n) >= numStatuses {
		return fmt.Errorf("span: status must be a name or the number of one: %s", b)
	}
	*s = Status(n)
	return nil
}

// openEnd is the End value of a span that has begun but not ended.
const openEnd sim.Time = -1

// Span is one recorded interval. Parent links express causal
// containment: attempts, backoffs and per-hop spans descend from their
// request; requests descend from their run; a parent's ID is always
// smaller than its children's.
type Span struct {
	ID     ID     `json:"id"`
	Parent ID     `json:"parent,omitempty"`
	Kind   Kind   `json:"kind"`
	Status Status `json:"status"`
	// PI and Bytes describe the packet behind a fabric span: its
	// protocol interface and wire size. They sit in the padding after
	// Kind and Status, so they cost the record nothing.
	PI    uint8  `json:"pi,omitempty"`
	Bytes uint32 `json:"bytes,omitempty"`
	// Start and End bound the interval in simulated time (picoseconds).
	// They coincide for instant markers.
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	// Name is a short stable label: the request kind ("probe",
	// "port-read"), the FM work phase, or the drop reason.
	Name string `json:"name,omitempty"`
	// Device locates fabric spans: the transmitting or servicing device.
	Device string `json:"device,omitempty"`
	// Port is the device port of fabric spans; -1 when not applicable.
	Port int `json:"port,omitempty"`
	// Tag is the PI-4 tag of attempt spans (each retry gets a fresh tag).
	Tag uint32 `json:"tag,omitempty"`
	// Attempt numbers retransmissions: 0 is the original transmission.
	Attempt int `json:"attempt,omitempty"`
}

// Open reports whether the span has not ended.
func (s Span) Open() bool { return s.End == openEnd }

// Duration is the span's extent; zero for instants and open spans.
func (s Span) Duration() sim.Duration {
	if s.Open() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// String renders a one-line summary, for test failures and debugging.
func (s Span) String() string {
	return fmt.Sprintf("#%d(%s %s %v..%v parent=%d %s)",
		s.ID, s.Kind, s.Name, s.Start, s.End, s.Parent, s.Status)
}

// Log is the serializable form of a finished trace: the spans in ID
// order plus how many were discarded once the cap was hit. It is the
// "spans" section of the run-report envelope.
type Log struct {
	Spans   []Span `json:"spans"`
	Dropped int    `json:"dropped,omitempty"`
}

// Tracer records spans for one simulation run. It is single-threaded,
// like the engine it observes. A nil *Tracer is the disabled state: the
// instrumented packages guard every hook with one nil check, so disabled
// tracing is allocation-free and branch-cheap.
type Tracer struct {
	spans   []Span
	max     int
	dropped int
	open    int
}

// New returns a tracer that keeps at most max spans; max <= 0 means
// unbounded. Spans begun past the cap are counted in Dropped and get
// ID 0, which every other method ignores.
func New(max int) *Tracer {
	return &Tracer{max: max}
}

// Begin opens a span and returns its ID, or 0 if the log is full.
func (t *Tracer) Begin(kind Kind, parent ID, at sim.Time) ID {
	if t.max > 0 && len(t.spans) >= t.max {
		t.dropped++
		return 0
	}
	id := ID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Kind: kind,
		Start: at, End: openEnd, Port: -1,
	})
	t.open++
	return id
}

// Span returns a pointer to the identified span for field annotation,
// or nil for ID 0 and dropped spans. The pointer is invalidated by the
// next Begin or Complete — annotate immediately, do not hold it.
func (t *Tracer) Span(id ID) *Span {
	if id == 0 || int(id) > len(t.spans) {
		return nil
	}
	return &t.spans[id-1]
}

// End closes an open span with the given status. Ending ID 0, an
// unknown span, or a span that already ended is a no-op, which makes
// teardown paths (run supersession, orphaned retries) safe to layer.
func (t *Tracer) End(id ID, at sim.Time, status Status) {
	s := t.Span(id)
	if s == nil || !s.Open() {
		return
	}
	s.End = at
	s.Status = status
	t.open--
}

// Complete records an already-bounded span in one call and returns its
// ID for annotation.
func (t *Tracer) Complete(kind Kind, parent ID, start, end sim.Time, status Status) ID {
	id := t.Begin(kind, parent, start)
	t.End(id, end, status)
	return id
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int { return len(t.spans) }

// Open returns the number of spans begun but not yet ended.
func (t *Tracer) Open() int { return t.open }

// Dropped returns the number of spans discarded because the cap was hit.
func (t *Tracer) Dropped() int { return t.dropped }

// Spans returns the recorded spans in ID order. The slice is the
// tracer's own storage; callers must not mutate it.
func (t *Tracer) Spans() []Span { return t.spans }

// Log snapshots the trace into its serializable form.
func (t *Tracer) Log() Log {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return Log{Spans: out, Dropped: t.dropped}
}

// Validate checks the structural invariants every finished log must
// satisfy: IDs dense and ascending from 1, parents referencing earlier
// spans, no span still open, and End never before Start. It returns the
// first violation found.
func Validate(l Log) error {
	for i, s := range l.Spans {
		if s.ID != ID(i+1) {
			return fmt.Errorf("span %d: ID %d out of sequence", i, s.ID)
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %v: parent %d not earlier than span", s, s.Parent)
		}
		if s.Open() || s.Status == StatusOpen {
			return fmt.Errorf("span %v: still open", s)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %v: ends before it starts", s)
		}
	}
	return nil
}
