package fabric

import (
	"testing"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topo"
)

// roundTrip is one warm PI-4 read round trip on a 3x3 mesh: the first
// endpoint reads its host switch's general-info block and the completion
// comes back. The request packet is reused, so the fabric's own
// allocations are all that is measured.
type roundTrip struct {
	e   *sim.Engine
	f   *Fabric
	ep  *Device
	hdr asi.RouteHeader
	pkt *asi.Packet
	got int
}

func newRoundTrip(tb testing.TB) *roundTrip {
	tb.Helper()
	e := sim.NewEngine()
	f, err := New(e, topo.Mesh(3, 3), Config{}, sim.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	// The host switch is adjacent: an empty path delivers there.
	hdr, err := route.Header(nil, asi.PI4DeviceManagement)
	if err != nil {
		tb.Fatal(err)
	}
	rt := &roundTrip{e: e, f: f, ep: firstEndpoint(f), hdr: hdr, pkt: &asi.Packet{Payload: &asi.PI4{}}}
	rt.ep.SetHandler(HandlerFunc(func(int, *asi.Packet) { rt.got++ }))
	return rt
}

// run sends the request and drains the engine.
func (rt *roundTrip) run() {
	p4 := rt.pkt.Payload.(*asi.PI4)
	*p4 = asi.PI4{Op: asi.PI4ReadRequest, Tag: 1, Offset: asi.GeneralInfoOffset, Count: asi.GeneralInfoBlocks, Data: p4.Data[:0]}
	rt.pkt.Header = rt.hdr
	rt.ep.Inject(rt.pkt)
	rt.e.Run()
}

// TestForwardRoundTripZeroAlloc pins BenchmarkForward/off: with no span
// tracer attached a warm PI-4 round trip allocates nothing.
func TestForwardRoundTripZeroAlloc(t *testing.T) {
	rt := newRoundTrip(t)
	for i := 0; i < 32; i++ {
		rt.run()
	}
	if rt.got != 32 {
		t.Fatalf("%d completions for 32 requests", rt.got)
	}
	if allocs := testing.AllocsPerRun(200, rt.run); allocs != 0 {
		t.Errorf("PI-4 round trip with spans off allocates %.1f per run, want 0", allocs)
	}
}

// BenchmarkForward is the per-packet cost of the fabric's recorder: one
// PI-4 round trip (inject, two wire traversals, device service, two
// deliveries) with no tracer attached and with an unbounded span tracer,
// which records every hop of the (untagged) packet. The tracer is
// replaced every 4096 round trips, outside the timer, so the log stays
// small.
func BenchmarkForward(b *testing.B) {
	for _, spans := range []bool{false, true} {
		name := "off"
		if spans {
			name = "spans"
		}
		b.Run(name, func(b *testing.B) {
			rt := newRoundTrip(b)
			for i := 0; i < 32; i++ {
				rt.run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if spans && i%4096 == 0 {
					b.StopTimer()
					rt.f.SetSpanTracer(span.New(0))
					b.StartTimer()
				}
				rt.run()
			}
		})
	}
}
