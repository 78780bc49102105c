package span

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }

// TestTracerLifecycle covers the basic begin/annotate/end flow and the
// bookkeeping counters.
func TestTracerLifecycle(t *testing.T) {
	tr := New(0)
	run := tr.Begin(KindRun, 0, us(0))
	req := tr.Begin(KindRequest, run, us(1))
	tr.Span(req).Name = "probe"
	tr.Span(req).Device = "dsn:0000000000000001"
	att := tr.Begin(KindAttempt, req, us(1))
	tr.Span(att).Tag = 7

	if got := tr.Open(); got != 3 {
		t.Fatalf("Open() = %d, want 3", got)
	}
	tr.End(att, us(5), StatusOK)
	tr.End(req, us(6), StatusOK)
	tr.End(run, us(7), StatusOK)
	if got := tr.Open(); got != 0 {
		t.Fatalf("Open() after ending all = %d, want 0", got)
	}
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}

	s := tr.Spans()[1]
	if s.Parent != run || s.Kind != KindRequest || s.Name != "probe" ||
		s.Start != us(1) || s.End != us(6) || s.Status != StatusOK {
		t.Fatalf("request span mangled: %v", s)
	}
	if err := Validate(tr.Log()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestEndIdempotent proves double-End and unknown-ID End are no-ops, the
// property the run-supersession teardown paths rely on.
func TestEndIdempotent(t *testing.T) {
	tr := New(0)
	id := tr.Begin(KindRequest, 0, us(0))
	tr.End(id, us(2), StatusTimeout)
	tr.End(id, us(9), StatusOK) // must not overwrite
	if s := *tr.Span(id); s.End != us(2) || s.Status != StatusTimeout {
		t.Fatalf("second End overwrote the span: %v", s)
	}
	tr.End(0, us(1), StatusOK)     // ID 0: no-op
	tr.End(99, us(1), StatusOK)    // unknown: no-op
	tr.End(id, us(1), StatusError) // closed: no-op
	if tr.Open() != 0 || tr.Len() != 1 {
		t.Fatalf("no-op Ends perturbed counters: open=%d len=%d", tr.Open(), tr.Len())
	}
}

// TestTracerCap proves spans past the cap are counted, return ID 0, and
// every method tolerates that ID.
func TestTracerCap(t *testing.T) {
	tr := New(2)
	a := tr.Begin(KindRun, 0, us(0))
	b := tr.Begin(KindRequest, a, us(1))
	c := tr.Begin(KindRequest, a, us(2))
	if c != 0 {
		t.Fatalf("Begin past cap returned %d, want 0", c)
	}
	if tr.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", tr.Dropped())
	}
	if tr.Span(c) != nil {
		t.Fatalf("Span(0) != nil")
	}
	tr.End(c, us(3), StatusOK)
	tr.End(b, us(3), StatusOK)
	tr.End(a, us(4), StatusOK)
	l := tr.Log()
	if len(l.Spans) != 2 || l.Dropped != 1 {
		t.Fatalf("Log = %d spans dropped %d, want 2/1", len(l.Spans), l.Dropped)
	}
}

// TestValidateRejects exercises each invariant violation.
func TestValidateRejects(t *testing.T) {
	ok := Span{ID: 1, Kind: KindRun, Status: StatusOK, Start: us(0), End: us(1)}
	cases := []struct {
		name string
		l    Log
	}{
		{"gap in IDs", Log{Spans: []Span{ok, {ID: 3, Status: StatusOK, End: us(1)}}}},
		{"parent not earlier", Log{Spans: []Span{ok, {ID: 2, Parent: 2, Status: StatusOK, Start: us(0), End: us(1)}}}},
		{"still open", Log{Spans: []Span{{ID: 1, Start: us(0), End: -1}}}},
		{"open status", Log{Spans: []Span{{ID: 1, Status: StatusOpen, Start: us(0), End: us(1)}}}},
		{"ends before start", Log{Spans: []Span{{ID: 1, Status: StatusOK, Start: us(2), End: us(1)}}}},
	}
	for _, tc := range cases {
		if err := Validate(tc.l); err == nil {
			t.Errorf("%s: Validate accepted invalid log", tc.name)
		}
	}
	if err := Validate(Log{Spans: []Span{ok}}); err != nil {
		t.Errorf("valid log rejected: %v", err)
	}
}

// TestKindStatusNames proves every enum value has a distinct canonical
// name that round-trips through JSON — the exhaustiveness guarantee the
// exporters rely on.
func TestKindStatusNames(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "Kind(") {
			t.Errorf("Kind %d has no name", k)
		}
		if seen[name] {
			t.Errorf("Kind name %q duplicated", name)
		}
		seen[name] = true
		if got, ok := KindByName(name); !ok || got != k {
			t.Errorf("KindByName(%q) = %v,%v want %v", name, got, ok, k)
		}
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal kind %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Errorf("kind %v JSON round trip = %v, %v", k, back, err)
		}
	}
	seen = map[string]bool{}
	for s := Status(0); s < numStatuses; s++ {
		name := s.String()
		if name == "" || strings.HasPrefix(name, "Status(") {
			t.Errorf("Status %d has no name", s)
		}
		if seen[name] {
			t.Errorf("Status name %q duplicated", name)
		}
		seen[name] = true
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal status %v: %v", s, err)
		}
		var back Status
		if err := json.Unmarshal(b, &back); err != nil || back != s {
			t.Errorf("status %v JSON round trip = %v, %v", s, back, err)
		}
	}
	if _, ok := KindByName("no-such-kind"); ok {
		t.Error("KindByName accepted an unknown name")
	}
	if _, ok := StatusByName("no-such-status"); ok {
		t.Error("StatusByName accepted an unknown name")
	}
}

// sampleLog builds a small two-request log with a retry, per-hop spans
// and an FM-service chain linking request 2's issue to request 1's
// completion processing — enough structure for analysis and rendering.
func sampleLog(t *testing.T) Log {
	t.Helper()
	tr := New(0)
	// hop annotates a fabric span of a 36-byte PI-4 packet.
	hop := func(id ID, device string, port int, name string) {
		s := tr.Span(id)
		s.Device, s.Port, s.Name, s.PI, s.Bytes = device, port, name, 4, 36
	}
	run := tr.Begin(KindRun, 0, us(0))
	tr.Span(run).Name = "serial-packet"

	// Kick-off FM service issues request 1.
	tr.Complete(KindFMService, run, us(0), us(1), StatusOK)
	r1 := tr.Begin(KindRequest, run, us(1))
	tr.Span(r1).Name = "probe"
	tr.Span(r1).Device = "dsn:0000000000000001"
	a1 := tr.Begin(KindAttempt, r1, us(1))
	tr.Span(a1).Tag = 1
	hop(tr.Complete(KindInject, r1, us(1), us(1), StatusInstant), "fm", 0, "")
	hop(tr.Complete(KindWire, r1, us(1), us(2), StatusOK), "fm", 0, "vc=2")
	tr.Complete(KindDevQueue, r1, us(2), us(3), StatusOK)
	tr.Complete(KindDevService, r1, us(3), us(5), StatusOK)
	tr.Complete(KindWire, r1, us(5), us(6), StatusOK)
	tr.End(a1, us(6), StatusOK)
	tr.Complete(KindFMQueue, r1, us(6), us(6), StatusOK)
	// Completion processing of r1 (FM service) issues request 2.
	svc := tr.Complete(KindFMService, r1, us(6), us(8), StatusOK)
	_ = svc
	tr.End(r1, us(8), StatusOK)

	r2 := tr.Begin(KindRequest, run, us(7))
	tr.Span(r2).Name = "port-read"
	tr.Span(r2).Device = "dsn:0000000000000002"
	a2 := tr.Begin(KindAttempt, r2, us(7))
	tr.Span(a2).Tag = 2
	tr.Complete(KindDrop, r2, us(8), us(8), StatusInstant)
	tr.End(a2, us(12), StatusTimeout)
	tr.Complete(KindBackoff, r2, us(12), us(14), StatusOK)
	a3 := tr.Begin(KindAttempt, r2, us(14))
	tr.Span(a3).Tag = 3
	tr.Span(a3).Attempt = 1
	tr.Complete(KindWire, r2, us(14), us(15), StatusOK)
	tr.Complete(KindDevService, r2, us(15), us(16), StatusOK)
	tr.Complete(KindWire, r2, us(16), us(17), StatusOK)
	tr.End(a3, us(17), StatusOK)
	tr.Complete(KindFMService, r2, us(17), us(18), StatusOK)
	tr.End(r2, us(18), StatusOK)
	tr.End(run, us(18), StatusOK)
	// An untagged packet's hop and a link flap belong to no run.
	hop(tr.Complete(KindDeliver, 0, us(19), us(19), StatusInstant), "sw0", 3, "")
	tr.Span(tr.Complete(KindFlap, 0, us(20), us(20), StatusInstant)).Name = "flap-up link=4"

	l := tr.Log()
	if err := Validate(l); err != nil {
		t.Fatalf("sample log invalid: %v", err)
	}
	return l
}

// TestAnalyzeCriticalPath proves the containment-based dependency
// recovery: request 2 starts during request 1's completion service, so
// the critical path is r1 -> r2.
func TestAnalyzeCriticalPath(t *testing.T) {
	l := sampleLog(t)
	a, err := Analyze(l)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(a.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(a.Runs))
	}
	ra := a.Runs[0]
	if len(ra.Requests) != 2 {
		t.Fatalf("requests = %d, want 2", len(ra.Requests))
	}
	if len(ra.Critical) != 2 || ra.Critical[0].Name != "probe" || ra.Critical[1].Name != "port-read" {
		t.Fatalf("critical path = %v, want probe -> port-read", ra.Critical)
	}
	if ra.ByKind[KindRequest].Count != 2 || ra.ByKind[KindWire].Count != 4 {
		t.Fatalf("breakdown wrong: requests=%d wires=%d",
			ra.ByKind[KindRequest].Count, ra.ByKind[KindWire].Count)
	}
	if ra.ByKind[KindWire].Total != 4*sim.Microsecond {
		t.Fatalf("wire total = %v, want 4us", ra.ByKind[KindWire].Total)
	}
}

// TestChromeRoundTrip proves WriteChrome emits a structurally valid
// trace-event document and ReadChrome reconstructs the exact log.
func TestChromeRoundTrip(t *testing.T) {
	l := sampleLog(t)
	l.Dropped = 3
	var buf bytes.Buffer
	if err := WriteChrome(&buf, l); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}

	// Structural checks on the raw document.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome doc is not valid JSON: %v", err)
	}
	phs := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phs[ph]++
		switch ph {
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" {
				t.Fatalf("instant event missing scope: %v", ev)
			}
		case "M":
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if phs["X"] == 0 || phs["i"] == 0 || phs["M"] < 3 {
		t.Fatalf("phase mix wrong: %v", phs)
	}

	back, err := ReadChrome(&buf)
	if err != nil {
		t.Fatalf("ReadChrome: %v", err)
	}
	if !reflect.DeepEqual(back, l) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, l)
	}
}

// TestSpanSize pins the record at 96 bytes: PI and Bytes live in the
// padding after Kind and Status.
func TestSpanSize(t *testing.T) {
	if n := unsafe.Sizeof(Span{}); n != 96 {
		t.Fatalf("sizeof(Span) = %d, want 96", n)
	}
}

// TestWritePackets pins the packet view's line format, its choice of
// kinds and its truncation notice.
func TestWritePackets(t *testing.T) {
	l := sampleLog(t)
	var all bytes.Buffer
	if err := WritePackets(&all, l, 0); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"1.000us      inject   fm           port=0   pi=4 36B\n" +
		"1.000us      tx       fm           port=0   pi=4 36B vc=2\n" +
		"5.000us      tx                    port=-1  pi=0 0B\n" +
		"8.000us      drop                  port=-1  pi=0 0B\n" +
		"14.000us     tx                    port=-1  pi=0 0B\n" +
		"16.000us     tx                    port=-1  pi=0 0B\n" +
		"19.000us     deliver  sw0          port=3   pi=4 36B\n" +
		"20.000us     fault                 port=-1  pi=0 0B flap-up link=4\n"
	if all.String() != want {
		t.Fatalf("packet view:\n%s\nwant:\n%s", all.String(), want)
	}
	var capped bytes.Buffer
	if err := WritePackets(&capped, l, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(capped.String(), "\n"), "\n")
	if len(lines) != 4 || !strings.HasPrefix(want, lines[0]+"\n"+lines[1]+"\n") ||
		lines[2] != "... 6 further events not recorded (buffer cap 2)" ||
		lines[3] != "trace truncated: 6 events dropped (raise -trace beyond 2)" {
		t.Fatalf("capped packet view:\n%s", capped.String())
	}
}

// TestGanttRender spot-checks the ASCII chart: every request gets a row,
// the critical-path rows are starred, and the legend is printed.
func TestGanttRender(t *testing.T) {
	l := sampleLog(t)
	a, err := Analyze(l)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	out := a.String()
	for _, want := range []string{
		"probe", "port-read", "*#", "legend:", "critical path", "breakdown",
		"2 requests", "1 retries", "1 drops",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Painted glyphs: wire, device service, backoff, drop must appear.
	for _, glyph := range []string{"w", "d", "b", "x", "F"} {
		if !strings.Contains(out, glyph) {
			t.Errorf("gantt missing glyph %q:\n%s", glyph, out)
		}
	}
}

// TestTimelines: a band's instants are the ends of the FM-service spans
// under it, however deep, in order; a band named skip, and a service span
// under no band, contribute none; a log that dropped spans is refused.
func TestTimelines(t *testing.T) {
	tr := New(0)
	run := tr.Begin(KindRun, 0, us(0))
	tr.Complete(KindFMService, run, us(0), us(1), StatusOK)
	upkeep := tr.Begin(KindRun, 0, us(1))
	tr.Span(upkeep).Name = "upkeep"
	req := tr.Begin(KindRequest, run, us(1))
	write := tr.Begin(KindRequest, upkeep, us(1))
	tr.Complete(KindFMQueue, req, us(1), us(2), StatusOK)
	tr.Complete(KindFMService, req, us(2), us(3), StatusOK)
	tr.Complete(KindFMService, write, us(3), us(4), StatusOK)
	tr.Complete(KindFMService, 0, us(4), us(5), StatusOK)
	tr.End(req, us(3), StatusOK)
	tr.End(write, us(4), StatusOK)
	tr.End(upkeep, us(4), StatusOK)
	tr.End(run, us(5), StatusOK)
	again := tr.Begin(KindRun, 0, us(6))
	tr.Complete(KindFMService, again, us(6), us(7), StatusOK)
	tr.End(again, us(7), StatusOK)

	runs, err := Timelines(tr.Log(), "upkeep")
	if want := [][]sim.Time{{us(1), us(3)}, {us(7)}}; err != nil || !reflect.DeepEqual(runs, want) {
		t.Errorf("Timelines = %v, %v; want %v", runs, err, want)
	}
	l := tr.Log()
	l.Dropped = 1
	if runs, err := Timelines(l, "upkeep"); err == nil {
		t.Errorf("a log that dropped a span read as %v", runs)
	}
}
