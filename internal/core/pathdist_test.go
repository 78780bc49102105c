package core

import (
	"reflect"
	"testing"

	"repro/internal/asi"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topo"
)

func TestEventRoutesActuallyWork(t *testing.T) {
	// After distribution, every device must be able to deliver a PI-5
	// to the FM — the property the whole change-detection chain rests on.
	tp := topo.Torus(4, 4)
	e, f, m := setup(t, tp, Parallel)
	runDiscovery(t, e, m)
	m.DistributeEventRoutes(func(d DistResult) {
		if d.Failures != 0 {
			t.Fatalf("distribution failures: %d", d.Failures)
		}
	})
	e.Run()

	// Bypass the manager: count raw PI-5 deliveries at the FM endpoint.
	received := map[asi.DSN]bool{}
	m.Device().SetHandler(fabric.HandlerFunc(func(port int, pkt *asi.Packet) {
		if ev, ok := pkt.Payload.(asi.PI5); ok {
			received[ev.Reporter] = true
		}
	}))
	for _, d := range f.Devices() {
		if d.DSN == m.Device().DSN {
			continue
		}
		d.EmitPI5(asi.PI5PortUp, 0)
	}
	e.Run()
	for _, d := range f.Devices() {
		if d.DSN == m.Device().DSN {
			continue
		}
		if !received[d.DSN] {
			t.Errorf("PI-5 from %s never reached the FM", d.Label)
		}
	}
}

func TestEventRouteForSelfTurnCase(t *testing.T) {
	// A switch whose arrival port equals the virtual ingress needs the
	// maximal self-turn; ensure encoding succeeds and the route works.
	tp := topo.Mesh(3, 3)
	e, f, m := setup(t, tp, Parallel)
	runDiscovery(t, e, m)
	for _, n := range m.DB().Nodes() {
		if n.DSN == m.Device().DSN {
			continue
		}
		if _, _, err := EventRouteFor(n); err != nil {
			t.Errorf("EventRouteFor(%v): %v", n.DSN, err)
		}
	}
	_ = f
}

func TestDistributionAfterChangeStillWorks(t *testing.T) {
	// Rediscover after a removal, redistribute, and confirm reporting
	// still functions — the full maintenance loop.
	tp := topo.Mesh(4, 4)
	e, f, m := setup(t, tp, Parallel)
	runDiscovery(t, e, m)
	m.DistributeEventRoutes(nil)
	e.Run()

	var rediscovered bool
	m.OnDiscoveryComplete = func(Result) { rediscovered = true }
	if err := f.SetDeviceDown(10, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !rediscovered {
		t.Fatal("change assimilation did not run")
	}

	var dist *DistResult
	m.DistributeEventRoutes(func(d DistResult) { dist = &d })
	e.Run()
	if dist == nil {
		t.Fatal("redistribution did not complete")
	}
	if dist.Failures != 0 {
		t.Errorf("redistribution failures: %d", dist.Failures)
	}
	if dist.Writes != m.DB().NumNodes()-1 {
		t.Errorf("wrote %d routes for %d devices", dist.Writes, m.DB().NumNodes())
	}
}

func TestDistributeDuringDiscoveryPanics(t *testing.T) {
	e, _, m := setup(t, topo.Mesh(3, 3), Parallel)
	m.StartDiscovery()
	defer func() {
		if recover() == nil {
			t.Error("distribution during discovery did not panic")
		}
	}()
	m.DistributeEventRoutes(nil)
	e.Run()
}

func TestDistResultTiming(t *testing.T) {
	e, _, m := setup(t, topo.Mesh(3, 3), Parallel)
	runDiscovery(t, e, m)
	var d DistResult
	m.DistributeEventRoutes(func(r DistResult) { d = r })
	e.Run()
	if d.Duration <= 0 {
		t.Errorf("distribution duration = %v", d.Duration)
	}
	if d.BytesSent == 0 {
		t.Error("no bytes accounted")
	}
	if d.End.Sub(d.Start) != d.Duration {
		t.Error("duration inconsistent")
	}
	_ = sim.Time(0)
}

// books is what a run counts of its own traffic: r without the instants,
// which a queue ahead of the run shifts, and with its timeline's length.
func books(r Result) (Result, int) {
	n := len(r.Timeline)
	r.Start, r.End, r.Duration, r.Timeline = 0, 0, 0, nil
	return r, n
}

// rerunMidRound discovers the 4x4 mesh under kind, then starts a second
// full run 10us after an upkeep round opened (or, with round false, with
// none open). It returns the second run's result and the round's, nil if
// the round never finished.
func rerunMidRound(t *testing.T, kind Kind, sp *span.Tracer, round bool) (Result, *DistResult) {
	t.Helper()
	tp := topo.Mesh(4, 4)
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(f, f.Device(tp.Endpoints()[0]), Options{Algorithm: kind, Spans: sp})
	runDiscovery(t, e, m)
	var res Result
	m.OnDiscoveryComplete = func(r Result) { res = r }
	var dist *DistResult
	if round {
		m.DistributeEventRoutes(func(d DistResult) { dist = &d })
	}
	e.After(10*sim.Microsecond, func(*sim.Engine) { m.StartDiscovery() })
	e.Run()
	return res, dist
}

// TestRunMidRoundKeepsItsOwnBooks starts a full run 10us into an upkeep
// round. The round finishes with its 31 writes, and the run counts only
// its own requests: 311 sent / 311 received / 0 stale / 312 processed,
// as with no round open. When one set of books served both, the run
// cancelled the round's writes, so the round never finished, and the run
// counted 311 / 313 / 2 / 341.
func TestRunMidRoundKeepsItsOwnBooks(t *testing.T) {
	for _, kind := range []Kind{SerialPacket, Parallel} {
		alone, _ := rerunMidRound(t, kind, nil, false)
		res, dist := rerunMidRound(t, kind, nil, true)
		if dist == nil {
			t.Fatalf("%s: the round never finished", kind)
		}
		if dist.Writes != 31 || dist.Failures != 0 {
			t.Errorf("%s: round wrote %d with %d failures, want 31 and 0", kind, dist.Writes, dist.Failures)
		}
		if got := [4]int{int(res.PacketsSent), int(res.PacketsReceived), res.Stale, res.Processed}; got != [4]int{311, 311, 0, 312} {
			t.Errorf("%s: run sent/received/stale/processed %v, want [311 311 0 312]", kind, got)
		}
		got, gotN := books(res)
		want, wantN := books(alone)
		if !reflect.DeepEqual(got, want) || gotN != wantN {
			t.Errorf("%s: run books %+v over %d items, want those of the run with no round open, %+v over %d",
				kind, got, gotN, want, wantN)
		}
	}
}

// TestPartialRunMidRoundKeepsItsOwnBooks takes switch 10 down as a round
// starts. The partial run counts only its own items and lasts as long as
// with no round open: 1.053ms and 7 items. It used to wait for the
// round's writes to the lost switch to time out, and lasted 5.043ms over
// 39 items.
func TestPartialRunMidRoundKeepsItsOwnBooks(t *testing.T) {
	var runs [2]Result
	for i, round := range []bool{false, true} {
		e, f, m := setup(t, topo.Mesh(4, 4), Partial)
		runDiscovery(t, e, m)
		m.DistributeEventRoutes(nil)
		e.Run()
		m.OnDiscoveryComplete = func(r Result) { runs[i] = r }
		var dist *DistResult
		if round {
			m.DistributeEventRoutes(func(d DistResult) { dist = &d })
		}
		if err := f.SetDeviceDown(10, false); err != nil {
			t.Fatal(err)
		}
		e.Run()
		if round && (dist == nil || dist.Writes != 31 || dist.Failures != 4) {
			t.Errorf("round %+v, want 31 writes and 4 failures", dist)
		}
	}
	alone, res := runs[0], runs[1]
	if res.Duration != 1052880*sim.Nanosecond || res.Processed != 7 {
		t.Errorf("partial run %v over %d items, want 1.053ms over 7", res.Duration, res.Processed)
	}
	got, gotN := books(res)
	want, wantN := books(alone)
	if res.Duration != alone.Duration || !reflect.DeepEqual(got, want) || gotN != wantN {
		t.Errorf("partial run %+v, want the run with no round open, %+v", res, alone)
	}
}

// TestOverlappingRoundsKeepTheirOwnBooks redistributes after every run
// under Partial, as Example_hotswap does, and takes switch 5 down. The
// second round opens while the first still waits on its writes to the
// lost region, finishes first, and each reports its own writes and
// failures.
func TestOverlappingRoundsKeepTheirOwnBooks(t *testing.T) {
	e, f, m := setup(t, topo.Mesh(4, 4), Partial)
	runDiscovery(t, e, m)
	m.DistributeEventRoutes(nil)
	e.Run()
	var done []DistResult
	var runs []Result
	m.OnDiscoveryComplete = func(r Result) {
		runs = append(runs, r)
		m.DistributeEventRoutes(func(d DistResult) { done = append(done, d) })
	}
	if err := f.SetDeviceDown(5, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(runs) != 2 || len(done) != 2 {
		t.Fatalf("%d runs and %d finished rounds, want 2 and 2", len(runs), len(done))
	}
	second, first := done[0], done[1]
	if first.Start > second.Start || second.Start > first.End || second.End > first.End {
		t.Errorf("rounds %v..%v and %v..%v do not nest", first.Start, first.End, second.Start, second.End)
	}
	if first.Writes != 31 || first.Failures != 6 || second.Writes != 29 || second.Failures != 0 {
		t.Errorf("rounds wrote %d/%d and %d/%d (writes/failures), want 31/6 and 29/0",
			first.Writes, first.Failures, second.Writes, second.Failures)
	}
	if runs[1].Duration >= 5*sim.Millisecond || runs[1].Processed != 9 {
		t.Errorf("second run %v over %d items, want under 5ms over 9", runs[1].Duration, runs[1].Processed)
	}
}

// TestRequestSpansParentByClass traces the mid-round full run: every
// write's request span parents to the event-routes band and every other
// request's to the run band. With one set of books, the run's requests
// parented to the event-routes band, which never closed.
func TestRequestSpansParentByClass(t *testing.T) {
	sp := span.New(0)
	rerunMidRound(t, Parallel, sp, true)
	spans := sp.Spans()
	var routes, reqs int
	for _, s := range spans {
		if s.Kind != span.KindRequest {
			continue
		}
		reqs++
		want := "Parallel"
		if s.Name == "write" {
			want = "event-routes"
			routes++
		}
		if s.Parent == 0 {
			t.Fatalf("%v has no parent, want a %s band", s, want)
		}
		if p := spans[s.Parent-1]; p.Kind != span.KindRun || p.Name != want {
			t.Fatalf("%v parents to %v, want a %s band", s, p, want)
		}
	}
	if routes != 31 || reqs != 2*311+31 {
		t.Errorf("%d write spans of %d request spans, want 31 of %d", routes, reqs, 2*311+31)
	}
	for _, s := range spans {
		if s.Kind == span.KindRun && s.Open() {
			t.Errorf("band %v never closed", s)
		}
	}
}

// TestRoundWindowBinds distributes on dragonfly 16x130, whose 4 159
// writes are just above the window: the round holds roundWindow writes in
// flight and no more, and writes what the unwindowed round wrote (pinned
// from it) in the same time.
func TestRoundWindowBinds(t *testing.T) {
	tp, err := topo.ParseName("dragonfly 16x130")
	if err != nil {
		t.Fatal(err)
	}
	e, _, m := setup(t, tp, Parallel)
	runDiscovery(t, e, m)
	var d DistResult
	m.DistributeEventRoutes(func(r DistResult) { d = r })
	if len(m.pending) != roundWindow {
		t.Fatalf("%d writes issued at once, want the window, %d", len(m.pending), roundWindow)
	}
	var r *round
	for _, req := range m.pending {
		r = req.round
		break
	}
	peak := 0
	for e.Step() {
		peak = max(peak, r.inFlight)
	}
	if peak != roundWindow {
		t.Errorf("peak in-flight writes %d, want %d", peak, roundWindow)
	}
	want := DistResult{Start: 11437810228000, End: 12179778266000, Duration: 741968038000, Writes: 4159, BytesSent: 174678}
	if d != want {
		t.Errorf("round %+v, want %+v", d, want)
	}
}
