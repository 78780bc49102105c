package fabric

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Zero-allocation regression tests for the packet hot path: with no
// tracer attached, steady-state injection, per-hop transmit (halfLink.kick),
// switch forwarding and delivery must not allocate. The pools involved —
// the engine's event arena, the per-device flight pools (one record per
// hop, from transmit to the receiver's routing decision) and the VC
// rings — all recycle after warmup.

func TestLinkKickSteadyStateZeroAlloc(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e := sim.NewEngine()
	f, err := New(e, tp, Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	eps := tp.Endpoints()
	src := f.Device(eps[0])
	dst := f.Device(eps[len(eps)-1])
	p := mustPath(t, tp, eps[0], eps[len(eps)-1])
	hdr, err := route.Header(p, asi.PIApplication)
	if err != nil {
		t.Fatal(err)
	}
	// Box the payload once: interface conversion of a fresh AppData value
	// is the test's allocation, not the fabric's.
	payload := asi.Payload(asi.AppData{Bytes: 256})

	// Warm every pool on the path: arena, flights, rings.
	before := dst.RxPackets
	for i := 0; i < 32; i++ {
		src.Inject(&asi.Packet{Header: hdr, Payload: payload})
		e.Run()
	}
	if dst.RxPackets != before+32 {
		t.Fatalf("delivered %d of 32 warmup packets", dst.RxPackets-before)
	}

	allocs := testing.AllocsPerRun(200, func() {
		src.Inject(&asi.Packet{Header: hdr, Payload: payload})
		e.Run()
	})
	// The packet built inside the measured loop is the only permitted
	// allocation: the fabric itself must add nothing.
	if allocs > 1 {
		t.Errorf("steady-state inject/forward/deliver allocates %.1f per run, want <= 1 (the test's own packet)", allocs)
	}
}

// TestLinkKickReusedPacketZeroAlloc is the stricter variant: re-injecting
// a caller-owned packet moves zero bytes to the heap.
func TestLinkKickReusedPacketZeroAlloc(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e := sim.NewEngine()
	f, err := New(e, tp, Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	eps := tp.Endpoints()
	src := f.Device(eps[0])
	p := mustPath(t, tp, eps[0], eps[len(eps)-1])
	hdr, err := route.Header(p, asi.PIApplication)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &asi.Packet{Header: hdr, Payload: asi.AppData{Bytes: 256}}
	for i := 0; i < 32; i++ {
		reinject(src, pkt, hdr)
		e.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		reinject(src, pkt, hdr)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state kick with tracing off allocates %.1f per run, want 0", allocs)
	}
}

// reinject restores the header consumed by turn-pool routing and puts the
// packet back on the wire.
func reinject(src *Device, pkt *asi.Packet, hdr asi.RouteHeader) {
	pkt.Header = hdr
	src.Inject(pkt)
}

// mustPath computes a source route between two endpoints over the static
// topology.
func mustPath(t *testing.T, tp *topo.Topology, src, dst topo.NodeID) route.Path {
	t.Helper()
	p := bfsPath(tp, src, dst)
	if p == nil {
		t.Fatalf("no path %d -> %d", src, dst)
	}
	return p
}

// TestLinkKickSpanTaggedZeroAlloc pins the span tracer's disabled cost at
// zero: a packet carrying a causal-trace request ID (pkt.Span != 0)
// crosses the fabric with no span tracer attached, and every hook —
// queue stamping, wire spans, stall instants, drop instants — must
// vanish behind the nil guard without a single allocation.
func TestLinkKickSpanTaggedZeroAlloc(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e := sim.NewEngine()
	f, err := New(e, tp, Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	eps := tp.Endpoints()
	src := f.Device(eps[0])
	p := mustPath(t, tp, eps[0], eps[len(eps)-1])
	hdr, err := route.Header(p, asi.PIApplication)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &asi.Packet{Header: hdr, Payload: asi.AppData{Bytes: 256}, Span: 7}
	for i := 0; i < 32; i++ {
		reinject(src, pkt, hdr)
		e.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		reinject(src, pkt, hdr)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state kick of a span-tagged packet with spans off allocates %.1f per run, want 0", allocs)
	}
}

// TestLinkKickTelemetryEnabledZeroAlloc repeats the strict reused-packet
// hot-path check with telemetry recording ON: per-link/per-VC counters
// are indexed increments into pre-sized slices, so enabling them must
// not cost a single allocation either.
func TestLinkKickTelemetryEnabledZeroAlloc(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e := sim.NewEngine()
	f, err := New(e, tp, Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	f.EnableTelemetry(reg)
	eps := tp.Endpoints()
	src := f.Device(eps[0])
	p := mustPath(t, tp, eps[0], eps[len(eps)-1])
	hdr, err := route.Header(p, asi.PIApplication)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &asi.Packet{Header: hdr, Payload: asi.AppData{Bytes: 256}}
	for i := 0; i < 32; i++ {
		reinject(src, pkt, hdr)
		e.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		reinject(src, pkt, hdr)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state kick with telemetry on allocates %.1f per run, want 0", allocs)
	}
	// The counters actually counted: every hop of every injection.
	s := reg.Snapshot()
	var linkTx uint64
	for _, v := range s.Vectors {
		if v.Name == MetricLinkTx {
			linkTx += v.Value
		}
	}
	if linkTx == 0 {
		t.Error("telemetry enabled but no link transmissions recorded")
	}
}

// TestFabricNewAllocBudget bounds what instantiating a fabric costs: the
// devices, links, ports and config-space heads come out of a handful of
// slabs sized from the topology, so the bill is a couple of hundred bytes
// per device or link and the allocation count does not grow with the
// fabric. (Before the slabs: 1026 B per unit in 15 705 allocations on this
// fabric; with the VC rings inline in every link record and a map-keyed
// topology port table: 477 B in 42.)
func TestFabricNewAllocBudget(t *testing.T) {
	tp, err := topo.ByName("dragonfly 8x32")
	if err != nil {
		t.Fatal(err)
	}
	const (
		bytesPerUnit = 234 // measured 213
		maxAllocs    = 64  // measured 12
	)
	units := uint64(len(tp.Nodes) + len(tp.Links))
	var bytes, allocs uint64 = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ { // minimum of five: other goroutines only add
		runtime.ReadMemStats(&before)
		if _, err := New(sim.NewEngine(), tp, Config{}, sim.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	if got := bytes / units; got > bytesPerUnit {
		t.Errorf("fabric.New spends %d B per device or link (%d B for %d), budget %d", got, bytes, units, bytesPerUnit)
	}
	if allocs > maxAllocs {
		t.Errorf("fabric.New makes %d allocations, budget %d: something is allocated per device or per link again", allocs, maxAllocs)
	}
}

// TestRecordSizes pins the link record, one per cable of a fabric, at
// 112 bytes: its six VC rings live in a block allocated only when a
// packet has to wait (424 bytes with them inline), and a half link keeps
// no pending-kick ID, since only a transmission schedules a kick.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(link{}); n != 112 {
		t.Fatalf("sizeof(link) = %d, want 112", n)
	}
}
