package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The span recorder lives in the benchmark, not the program: spans sit
// around the calls into each layer. It is in memory only and is written
// out when the run ends. A nil *tracer records nothing, which is how the
// untraced run that yields the end-to-end metrics runs.

// spanRec is one recorded span. Spans of one operation share Op; Track 0
// is the driver goroutine, every reader goroutine has its own track.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Track  int    `json:"track"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s spanRec) dur() int64 { return s.End - s.Start }

type tracer struct {
	epoch time.Time
	// on switches recording; the driver flips it between operations only,
	// so a span is never begun under one setting and ended under the other.
	on atomic.Bool

	// Driver-goroutine state: the stack of open spans and the current op.
	stack []openSpan
	op    int64

	mu     sync.Mutex // guards spans and nextID against reader goroutines
	spans  []spanRec
	nextID int64
}

type openSpan struct {
	id    int64
	name  string
	start int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) newID() int64 {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// enable switches recording on or off; a nil tracer stays off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// setOp names the operation the following driver spans belong to.
func (t *tracer) setOp(op int64) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span on the driver goroutine, a child of the innermost
// open one; end closes it. Calls must nest.
func (t *tracer) begin(name string) {
	if !t.active() {
		return
	}
	t.stack = append(t.stack, openSpan{id: t.newID(), name: name, start: t.now()})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if !t.active() {
		return 0
	}
	end := t.now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	var parent int64
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].id
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{ID: top.id, Parent: parent, Op: t.op, Name: top.name, Start: top.start, End: end})
	t.mu.Unlock()
	return time.Duration(end - top.start)
}

// current returns the innermost open driver span's id (0 when none), for
// reader goroutines to name as the cause of their spans.
func (t *tracer) current() int64 {
	if !t.active() || len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1].id
}

// record appends a finished span from a reader goroutine.
func (t *tracer) record(track int, parent, op int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.nextID++
	t.spans = append(t.spans, spanRec{
		ID: t.nextID, Parent: parent, Op: op, Track: track, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by child spans on the same track. Children on
// other tracks (reader goroutines) overlap the parent instead of
// consuming it, so they leave its self time alone.
func selfTimes(spans []spanRec) map[int64]int64 {
	byID := make(map[int64]spanRec, len(spans))
	kids := make(map[int64][]spanRec)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && p.Track == s.Track {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent spanRec, kids []spanRec) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// spanTotals sums duration and self time per span name.
type spanTotals struct {
	n         int
	dur, self int64
	durs      []float64 // per-span durations, ns
}

func totalsByName(spans []spanRec) map[string]*spanTotals {
	self := selfTimes(spans)
	out := map[string]*spanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.n++
		t.dur += s.dur()
		t.self += self[s.ID]
		t.durs = append(t.durs, float64(s.dur()))
	}
	return out
}

// traceFileOps bounds the trace file to the spans of the first so many
// recorded operations; the per-layer metrics are computed from every span.
const traceFileOps = 400

// write stores the spans of the first traceFileOps operations as a JSON
// array, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "[")
	first := true
	firstOp := int64(0)
	if len(t.spans) > 0 {
		firstOp = t.spans[0].Op
		for _, s := range t.spans {
			firstOp = min(firstOp, s.Op)
		}
	}
	for _, s := range t.spans {
		if s.Op >= firstOp+traceFileOps {
			continue
		}
		if !first {
			fmt.Fprintln(w, ",")
		}
		first = false
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"track":%d,"name":%q,"start_ns":%d,"end_ns":%d}`,
			s.ID, s.Parent, s.Op, s.Track, s.Name, s.Start, s.End)
	}
	fmt.Fprintln(w, "\n]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
