package fabric

import (
	"testing"

	"repro/internal/asi"
	"repro/internal/span"
	"repro/internal/topo"
)

// countKinds tallies a span log by kind.
func countKinds(spans []span.Span) map[span.Kind]int {
	c := make(map[span.Kind]int)
	for _, s := range spans {
		c[s.Kind]++
	}
	return c
}

func TestFabricTracingRecordsLifecycle(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	tr := span.New(0)
	f.SetSpanTracer(tr)
	ep := firstEndpoint(f)
	attachCapture(e, ep)
	ep.Inject(readReq(t, nil, 1, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()

	c := countKinds(tr.Spans())
	if c[span.KindInject] != 1 {
		t.Errorf("injects = %d, want 1", c[span.KindInject])
	}
	// Request + completion each cross one link.
	if c[span.KindWire] != 2 {
		t.Errorf("wire spans = %d, want 2", c[span.KindWire])
	}
	// Delivered at the switch (request) and at the endpoint (completion).
	if c[span.KindDeliver] != 2 {
		t.Errorf("delivers = %d, want 2", c[span.KindDeliver])
	}
	if c[span.KindDrop] != 0 {
		t.Errorf("drops = %d, want 0", c[span.KindDrop])
	}
	// Records are time-ordered, and an untagged packet's have no parent.
	for i, s := range tr.Spans() {
		if i > 0 && s.Start < tr.Spans()[i-1].Start {
			t.Fatal("span log not time-ordered")
		}
		if s.Parent != 0 {
			t.Errorf("untagged packet recorded %v with a parent", s)
		}
		if s.PI != uint8(asi.PI4DeviceManagement) || s.Bytes == 0 {
			t.Errorf("span %v: pi=%d bytes=%d, want the PI-4 packet's", s, s.PI, s.Bytes)
		}
	}
	if err := span.Validate(tr.Log()); err != nil {
		t.Fatal(err)
	}
}

// A tagged packet's hops all parent to the request it carries.
func TestFabricTracingParentsTaggedHops(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	tr := span.New(0)
	f.SetSpanTracer(tr)
	req := tr.Begin(span.KindRequest, 0, 0)
	ep := firstEndpoint(f)
	attachCapture(e, ep)
	pkt := readReq(t, nil, 1, asi.GeneralInfoOffset, asi.GeneralInfoBlocks)
	pkt.Span = uint64(req)
	ep.Inject(pkt)
	e.Run()
	tr.End(req, e.Now(), span.StatusOK)
	for _, s := range tr.Spans()[1:] {
		if s.Parent != req {
			t.Errorf("tagged hop %v not under request #%d", s, req)
		}
	}
	if c := countKinds(tr.Spans()); c[span.KindDevService] != 1 {
		t.Errorf("dev-service spans = %d, want 1", c[span.KindDevService])
	}
}

func TestFabricTracingRecordsDrops(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	tr := span.New(0)
	f.SetSpanTracer(tr)
	ep := firstEndpoint(f)
	// Route error: 2 leftover turn bits at a 16-port switch.
	ep.Inject(&asi.Packet{
		Header:  asi.RouteHeader{TurnPool: 3, TurnPointer: 2, PI: asi.PI4DeviceManagement, TC: asi.TCManagement},
		Payload: &asi.PI4{Op: asi.PI4ReadRequest, Tag: 1, Count: 1},
	})
	e.Run()
	found := false
	for _, s := range tr.Spans() {
		if s.Kind == span.KindDrop && s.Name == DropRouteError.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("no route-error drop in span log: %v", tr.Spans())
	}
}

func TestTracerDetachStopsRecording(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	tr := span.New(0)
	f.SetSpanTracer(tr)
	ep := firstEndpoint(f)
	attachCapture(e, ep)
	ep.Inject(readReq(t, nil, 1, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()
	n := tr.Len()
	f.SetSpanTracer(nil)
	ep.Inject(readReq(t, nil, 2, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()
	if tr.Len() != n {
		t.Errorf("recording continued after detach: %d -> %d", n, tr.Len())
	}
}
