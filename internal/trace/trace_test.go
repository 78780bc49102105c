package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/asi"
)

func ev(k Kind, pi asi.PI) Event {
	return Event{At: 100, Kind: k, Device: "sw0", Port: 2, PI: pi, Bytes: 30}
}

func TestBufferRecordsAndCaps(t *testing.T) {
	b := &Buffer{Max: 2}
	for i := 0; i < 5; i++ {
		b.Record(ev(Inject, 4))
	}
	if len(b.Events) != 2 || b.Dropped() != 3 {
		t.Errorf("events=%d dropped=%d", len(b.Events), b.Dropped())
	}
	unbounded := &Buffer{}
	for i := 0; i < 100; i++ {
		unbounded.Record(ev(Deliver, 4))
	}
	if len(unbounded.Events) != 100 {
		t.Errorf("unbounded kept %d", len(unbounded.Events))
	}
}

func TestWriteText(t *testing.T) {
	b := &Buffer{Max: 1}
	b.Record(ev(Transmit, 5))
	b.Record(ev(Drop, 5))
	var out bytes.Buffer
	if err := b.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "tx") || !strings.Contains(s, "sw0") {
		t.Errorf("text: %q", s)
	}
	if !strings.Contains(s, "1 further events") {
		t.Errorf("cap note missing: %q", s)
	}
}

func TestCountByKind(t *testing.T) {
	b := &Buffer{}
	b.Record(ev(Inject, 4))
	b.Record(ev(Deliver, 4))
	b.Record(ev(Deliver, 4))
	c := b.CountByKind()
	if c[Inject] != 1 || c[Deliver] != 2 || c[Drop] != 0 {
		t.Errorf("counts: %v", c)
	}
}

func TestFilters(t *testing.T) {
	b := &Buffer{}
	f := FilterKind(b, Deliver)
	f.Record(ev(Deliver, asi.PI5EventReporting))
	f.Record(ev(Inject, asi.PI5EventReporting))
	if len(b.Events) != 1 {
		t.Errorf("filtered to %d events", len(b.Events))
	}
}

// TestKindStrings is the exhaustiveness gate over numKinds: every Kind
// must have a distinct real name (not the Kind(n) fallback) and pass
// FilterKind's fixed-size set, so adding a Kind without updating the
// name table fails here instead of silently misrendering.
func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "Kind(") {
			t.Errorf("Kind %d has no canonical name (got %q)", int(k), name)
		}
		if seen[name] {
			t.Errorf("Kind name %q duplicated", name)
		}
		seen[name] = true

		// Every kind must survive its own FilterKind round trip.
		b := &Buffer{}
		FilterKind(b, k).Record(Event{Kind: k})
		if len(b.Events) != 1 {
			t.Errorf("FilterKind lost kind %v", k)
		}
	}
	if Kind(99).String() == "" || ev(Drop, 4).String() == "" {
		t.Error("string rendering broken")
	}
	e := Event{Detail: "why"}
	if !strings.Contains(e.String(), "why") {
		t.Error("detail missing")
	}
}
