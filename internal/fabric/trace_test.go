package fabric

import (
	"testing"

	"repro/internal/asi"
	"repro/internal/topo"
	"repro/internal/trace"
)

func TestFabricTracingRecordsLifecycle(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	buf := &trace.Buffer{}
	f.SetTracer(buf)
	ep := firstEndpoint(f)
	attachCapture(e, ep)
	ep.Inject(readReq(t, nil, 1, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()

	c := buf.CountByKind()
	if c[trace.Inject] != 1 {
		t.Errorf("injects = %d, want 1", c[trace.Inject])
	}
	// Request + completion each cross one link.
	if c[trace.Transmit] != 2 {
		t.Errorf("transmits = %d, want 2", c[trace.Transmit])
	}
	// Delivered at the switch (request) and at the endpoint (completion).
	if c[trace.Deliver] != 2 {
		t.Errorf("delivers = %d, want 2", c[trace.Deliver])
	}
	if c[trace.Drop] != 0 {
		t.Errorf("drops = %d, want 0", c[trace.Drop])
	}
	// Events are time-ordered.
	for i := 1; i < len(buf.Events); i++ {
		if buf.Events[i].At < buf.Events[i-1].At {
			t.Fatal("trace not time-ordered")
		}
	}
}

func TestFabricTracingRecordsDrops(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	buf := &trace.Buffer{}
	f.SetTracer(buf)
	ep := firstEndpoint(f)
	// Route error: 2 leftover turn bits at a 16-port switch.
	ep.Inject(&asi.Packet{
		Header:  asi.RouteHeader{TurnPool: 3, TurnPointer: 2, PI: asi.PI4DeviceManagement, TC: asi.TCManagement},
		Payload: &asi.PI4{Op: asi.PI4ReadRequest, Tag: 1, Count: 1},
	})
	e.Run()
	found := false
	for _, ev := range buf.Events {
		if ev.Kind == trace.Drop && ev.Detail == DropRouteError.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("no route-error drop in trace: %+v", buf.Events)
	}
}

func TestTracerDetachStopsRecording(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	buf := &trace.Buffer{}
	f.SetTracer(buf)
	ep := firstEndpoint(f)
	attachCapture(e, ep)
	ep.Inject(readReq(t, nil, 1, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()
	n := len(buf.Events)
	f.SetTracer(nil)
	ep.Inject(readReq(t, nil, 2, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()
	if len(buf.Events) != n {
		t.Errorf("recording continued after detach: %d -> %d", n, len(buf.Events))
	}
}
