package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeNestedAndSiblingChildren(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "gen.toggles", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 10, End: 70},
		{ID: 4, Parent: 3, Name: "rib.install", Start: 20, End: 40},
		{ID: 5, Parent: 3, Name: "rib.install", Start: 45, End: 65},
		{ID: 6, Parent: 1, Name: "rib.deliver.wait", Start: 70, End: 90},
		// A reader goroutine's span overlaps the wait without consuming it.
		{ID: 7, Parent: 6, Track: 1, Name: "rib.apply", Start: 72, End: 80},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 10, 2: 10, 3: 20, 4: 20, 5: 20, 6: 20, 7: 8}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Driver-goroutine self times add up to the round exactly.
	var sum int64
	for _, s := range spans {
		if s.Track == 0 {
			sum += self[s.ID]
		}
	}
	if sum != spans[0].dur() {
		t.Errorf("driver self times sum to %d, the round lasted %d", sum, spans[0].dur())
	}
	tot := totalsByName(spans)
	if got := tot["rib.install"]; got.n != 2 || got.dur != 40 || got.self != 40 {
		t.Errorf("rib.install totals %+v", got)
	}
	if got := tot["sim.run"]; got.dur != 60 || got.self != 20 {
		t.Errorf("sim.run totals %+v", got)
	}
}

func TestSelfTimeOverlappingAndOverhangingChildren(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "p", Start: 10, End: 50},
		{ID: 2, Parent: 1, Name: "a", Start: 5, End: 20},  // starts before the parent
		{ID: 3, Parent: 1, Name: "b", Start: 15, End: 30}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 45, End: 60}, // ends after the parent
	}
	if got := selfTimes(spans)[1]; got != 15 {
		t.Errorf("self time = %d, want 15 (40 less the covered 10..30 and 45..50)", got)
	}
}

func TestTracerNestsAndSwitchesOff(t *testing.T) {
	var off *tracer
	off.begin("x") // a nil tracer records nothing and must not panic
	off.end()
	off.setOp(3)

	tr := newTracer()
	tr.begin("ignored")
	tr.end()
	if len(tr.spans) != 0 {
		t.Fatalf("a tracer that is off recorded %d spans", len(tr.spans))
	}
	tr.enable(true)
	tr.setOp(7)
	tr.begin("round")
	parent := tr.current()
	tr.begin("sim.run")
	tr.end()
	tr.record(2, parent, 7, "rib.apply", tr.epoch.Add(time.Microsecond), tr.epoch.Add(2*time.Microsecond))
	tr.end()
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	byName := map[string]spanRec{}
	for _, s := range tr.spans {
		byName[s.Name] = s
		if s.Op != 7 {
			t.Errorf("span %s has op %d, want 7", s.Name, s.Op)
		}
	}
	if byName["sim.run"].Parent != byName["round"].ID || byName["rib.apply"].Parent != byName["round"].ID {
		t.Errorf("parents: %+v", byName)
	}
	if byName["round"].Parent != 0 || byName["rib.apply"].Track != 2 {
		t.Errorf("root or track wrong: %+v", byName)
	}

	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []spanRec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("trace file is not a JSON array of spans: %v", err)
	}
	if len(back) != 3 || back[0] != tr.spans[0] {
		t.Errorf("trace file round trip: %+v", back)
	}
}
