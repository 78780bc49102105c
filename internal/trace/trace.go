// Package trace records packet-level fabric events — injections, per-hop
// transmissions, deliveries and drops — for debugging simulations and for
// inspecting protocol behaviour (cmd/asidisc -trace). Recording is
// optional: the fabric only pays for tracing when a recorder is attached.
package trace

import (
	"fmt"
	"io"

	"repro/internal/asi"
	"repro/internal/sim"
)

// Kind classifies a traced event.
type Kind int

const (
	// Inject: an endpoint put a packet into the fabric.
	Inject Kind = iota
	// Transmit: a device started serializing a packet onto a link.
	Transmit
	// Deliver: a device consumed a packet.
	Deliver
	// Drop: the fabric discarded a packet.
	Drop
	// Fault: the installed fault plan acted (link flap window opened or
	// closed, delayed delivery).
	Fault
	// Stall: a link's head-of-line packet was starved for credits — the
	// wire sat idle for that VC solely because the receiver's buffer
	// was full.
	Stall
	numKinds
)

// kindNames indexes the canonical name of every kind. The exhaustiveness
// test walks numKinds to guarantee no Kind is ever added without a name
// (FilterKind's fixed-size set is keyed by the same constant).
var kindNames = [numKinds]string{
	Inject:   "inject",
	Transmit: "tx",
	Deliver:  "deliver",
	Drop:     "drop",
	Fault:    "fault",
	Stall:    "stall",
}

// String names the kind.
func (k Kind) String() string {
	if k >= 0 && k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded fabric occurrence.
type Event struct {
	At     sim.Time
	Kind   Kind
	Device string
	Port   int
	PI     asi.PI
	Bytes  int
	Detail string
}

// String renders one trace line.
func (e Event) String() string {
	s := fmt.Sprintf("%-12v %-8s %-12s port=%-3d pi=%d %dB", e.At, e.Kind, e.Device, e.Port, e.PI, e.Bytes)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Recorder receives events as they happen.
type Recorder interface {
	Record(Event)
}

// Buffer is a capped in-memory recorder. The zero value is unbounded;
// with Max set it keeps the first Max events and counts the rest, so
// capping is never silent — Dropped reports the overflow and WriteText
// prints a truncation notice.
type Buffer struct {
	Max     int
	Events  []Event
	dropped int
}

// Dropped returns how many events were discarded after the buffer
// reached its cap.
func (b *Buffer) Dropped() int { return b.dropped }

// Record implements Recorder.
func (b *Buffer) Record(e Event) {
	if b.Max > 0 {
		if len(b.Events) >= b.Max {
			b.dropped++
			return
		}
		if b.Events == nil {
			// A capped buffer holds at most Max events; reserve them all
			// up front instead of regrowing on the recording hot path.
			b.Events = make([]Event, 0, b.Max)
		}
	}
	b.Events = append(b.Events, e)
}

// WriteText dumps the buffer as one line per event.
func (b *Buffer) WriteText(w io.Writer) error {
	for _, e := range b.Events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	if b.dropped > 0 {
		if _, err := fmt.Fprintf(w, "... %d further events not recorded (buffer cap %d)\n", b.dropped, b.Max); err != nil {
			return err
		}
	}
	return nil
}

// CountByKind tallies the recorded events.
func (b *Buffer) CountByKind() map[Kind]int {
	out := make(map[Kind]int, int(numKinds))
	for _, e := range b.Events {
		out[e.Kind]++
	}
	return out
}

// FilterKind returns a recorder that forwards only the given kinds.
func FilterKind(next Recorder, kinds ...Kind) Recorder {
	var set [numKinds]bool
	for _, k := range kinds {
		if k >= 0 && k < numKinds {
			set[k] = true
		}
	}
	return filterFunc(func(e Event) {
		if e.Kind >= 0 && e.Kind < numKinds && set[e.Kind] {
			next.Record(e)
		}
	})
}

type filterFunc func(Event)

// Record implements Recorder.
func (f filterFunc) Record(e Event) { f(e) }
