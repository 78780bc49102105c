package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Chrome trace-event export. The format is the JSON object form of the
// Trace Event Format that chrome://tracing and Perfetto load directly:
// a top-level object with a "traceEvents" array of phase-coded events.
// Each interval span becomes one complete event (ph "X") with ts/dur in
// microseconds; instant markers become ph "i" events; ph "M" metadata
// events name the rows. Rows (tid) group spans by their owning request
// so each PI-4's round trip reads as one horizontal lane, with runs and
// FM phases on lane 0 — the on-screen layout mirrors the paper's Fig. 5
// timeline. The original span fields ride along losslessly in "args" so
// ReadChrome can reconstruct the exact Log for asitrace.

// chromeDoc is the top-level trace object.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeEvent is one trace event. Fields follow the Trace Event Format
// field names; Args carries the lossless span record.
type chromeEvent struct {
	Name  string      `json:"name"`
	Cat   string      `json:"cat,omitempty"`
	Ph    string      `json:"ph"`
	Ts    float64     `json:"ts"`
	Dur   *float64    `json:"dur,omitempty"`
	Pid   int         `json:"pid"`
	Tid   uint64      `json:"tid"`
	Scope string      `json:"s,omitempty"`
	Args  *chromeArgs `json:"args,omitempty"`
}

// chromeArgs is the span record embedded in each event, precise where
// the µs-quantized ts/dur are lossy.
type chromeArgs struct {
	ID      ID     `json:"id"`
	Parent  ID     `json:"parent,omitempty"`
	Kind    Kind   `json:"kind"`
	Status  Status `json:"status"`
	PI      uint8  `json:"pi,omitempty"`
	Bytes   uint32 `json:"bytes,omitempty"`
	StartPS int64  `json:"start_ps"`
	EndPS   int64  `json:"end_ps"`
	Name    string `json:"span_name,omitempty"`
	Device  string `json:"device,omitempty"`
	Port    int    `json:"port"`
	Tag     uint32 `json:"tag,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Dropped int    `json:"dropped,omitempty"`
}

// metaArgs is the payload of ph "M" thread_name metadata events.
type metaArgs struct {
	Name string `json:"name"`
}

const psPerMicro = 1e6 // trace-event ts/dur are µs; sim time is ps

// requestLane walks the parent chain to the owning request span, whose
// ID becomes the Chrome thread (row). Runs, FM phases and anything not
// under a request share lane 0.
func requestLane(byID map[ID]*Span, s *Span) uint64 {
	for cur := s; cur != nil; cur = byID[cur.Parent] {
		if cur.Kind == KindRequest {
			return uint64(cur.ID)
		}
	}
	return 0
}

// eventName renders the on-screen label for a span.
func eventName(s *Span) string {
	if s.Name != "" {
		return s.Kind.String() + " " + s.Name
	}
	return s.Kind.String()
}

// WriteChrome writes the log as a Chrome trace-event JSON document.
func WriteChrome(w io.Writer, l Log) error {
	byID := make(map[ID]*Span, len(l.Spans))
	for i := range l.Spans {
		byID[l.Spans[i].ID] = &l.Spans[i]
	}

	doc := chromeDoc{DisplayTimeUnit: "ns"}
	doc.TraceEvents = make([]chromeEvent, 0, len(l.Spans)+8)

	// Name the lanes first so viewers sort and label them correctly.
	lanes := map[uint64]string{0: "fm / runs"}
	for i := range l.Spans {
		s := &l.Spans[i]
		lane := requestLane(byID, s)
		if _, ok := lanes[lane]; !ok {
			req := byID[ID(lane)]
			label := fmt.Sprintf("req %d %s", lane, req.Name)
			if req.Device != "" {
				label += " " + req.Device
			}
			lanes[lane] = label
		}
	}
	laneIDs := make([]uint64, 0, len(lanes))
	for id := range lanes {
		laneIDs = append(laneIDs, id)
	}
	sort.Slice(laneIDs, func(i, j int) bool { return laneIDs[i] < laneIDs[j] })
	for _, id := range laneIDs {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
			Args: &chromeArgs{Name: lanes[id]},
		})
	}

	for i := range l.Spans {
		s := &l.Spans[i]
		args := &chromeArgs{
			ID: s.ID, Parent: s.Parent, Kind: s.Kind, Status: s.Status,
			PI: s.PI, Bytes: s.Bytes,
			StartPS: int64(s.Start), EndPS: int64(s.End),
			Name: s.Name, Device: s.Device, Port: s.Port,
			Tag: s.Tag, Attempt: s.Attempt,
		}
		if i == 0 {
			args.Dropped = l.Dropped
		}
		ev := chromeEvent{
			Name: eventName(s),
			Cat:  s.Kind.String(),
			Pid:  1,
			Tid:  requestLane(byID, s),
			Ts:   float64(s.Start) / psPerMicro,
			Args: args,
		}
		if s.Status == StatusInstant {
			ev.Ph = "i"
			ev.Scope = "t"
		} else {
			ev.Ph = "X"
			dur := float64(s.Duration()) / psPerMicro
			ev.Dur = &dur
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// ReadChrome parses a Chrome trace-event document produced by
// WriteChrome back into the exact Log it came from, using the lossless
// args records. It validates the reconstructed log before returning.
func ReadChrome(r io.Reader) (Log, error) {
	var doc chromeDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return Log{}, fmt.Errorf("span: decoding chrome trace: %w", err)
	}
	var l Log
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" || ev.Args == nil || ev.Args.ID == 0 {
			continue
		}
		a := ev.Args
		l.Spans = append(l.Spans, Span{
			ID: a.ID, Parent: a.Parent, Kind: a.Kind, Status: a.Status,
			PI: a.PI, Bytes: a.Bytes,
			Start: sim.Time(a.StartPS), End: sim.Time(a.EndPS),
			Name: a.Name, Device: a.Device, Port: a.Port,
			Tag: a.Tag, Attempt: a.Attempt,
		})
		l.Dropped += a.Dropped
	}
	sort.Slice(l.Spans, func(i, j int) bool { return l.Spans[i].ID < l.Spans[j].ID })
	if err := Validate(l); err != nil {
		return Log{}, fmt.Errorf("span: chrome trace is not a valid span log: %w", err)
	}
	return l, nil
}
