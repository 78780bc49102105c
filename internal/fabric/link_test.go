package fabric

import (
	"testing"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
)

// twoNode builds the smallest fabric: one switch, one endpoint.
func twoNode(t *testing.T, cfg Config) (*sim.Engine, *Fabric, *Device, *Device) {
	t.Helper()
	tp := topo.New("pair")
	sw := tp.AddSwitch(4, "sw")
	ep := tp.AddEndpoint("ep")
	if err := tp.Connect(sw, 0, ep, 0); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	f, err := New(e, tp, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return e, f, f.Device(sw), f.Device(ep)
}

func TestLinkSerializationOccupancy(t *testing.T) {
	e, f, sw, ep := twoNode(t, Config{})
	_ = f
	// Two back-to-back 1000B app packets addressed to the switch itself
	// (empty pool delivers there): the second arrival is one full
	// serialization later.
	var arrivals []sim.Time
	hdr := asi.RouteHeader{PI: asi.PIApplication}
	_ = hdr
	// Use management reads so delivery is observable via PI-4 service:
	// instead, simply watch switch RxPackets after each event.
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication}, Payload: asi.AppData{Bytes: 1000}})
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication}, Payload: asi.AppData{Bytes: 1000}})
	prev := uint64(0)
	for e.Step() {
		if sw.RxPackets > prev {
			prev = sw.RxPackets
			arrivals = append(arrivals, e.Now())
		}
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals: %v", arrivals)
	}
	// Wire size = 1000 + 20 overhead = 1020B at 2 Gbps = 4.08us.
	gap := arrivals[1].Sub(arrivals[0])
	want := f.serialization(1020)
	if gap != want {
		t.Errorf("serialization gap = %v, want %v", gap, want)
	}
}

func TestVCArbitrationStrictPriority(t *testing.T) {
	e, f, sw, ep := twoNode(t, Config{})
	_ = f
	// Queue several bulk packets, then one management packet, while the
	// link is busy with the first bulk transfer. The management packet
	// must be the second to arrive.
	order := []asi.PI{}
	prev := uint64(0)
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication}, Payload: asi.AppData{Bytes: 2000}})
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication}, Payload: asi.AppData{Bytes: 2000}})
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication, TC: asi.TCManagement},
		Payload: asi.AppData{Bytes: 64}})
	for e.Step() {
		if sw.RxPackets > prev {
			prev = sw.RxPackets
			// Track the last consumed PI via counters: infer by size
			// is brittle; use Delivered map deltas instead.
		}
	}
	c := f.Counters()
	if c.Delivered[asi.PIApplication] != 3 {
		t.Fatalf("delivered %d", c.Delivered[asi.PIApplication])
	}
	_ = order
	// Strict priority is asserted behaviourally in
	// TestManagementPriorityOverBulkTraffic; here assert no drops and
	// full delivery under mixed VCs.
	for r, n := range c.Drops {
		if n != 0 {
			t.Errorf("drops[%v] = %d", DropReason(r), n)
		}
	}
}

func TestCreditsExhaustAndRecover(t *testing.T) {
	e, f, sw, ep := twoNode(t, Config{CreditsPerVC: 1})
	// With one credit, the second packet must wait for the first's
	// credit return (after the switch's routing latency).
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication}, Payload: asi.AppData{Bytes: 100}})
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication}, Payload: asi.AppData{Bytes: 100}})
	e.Run()
	if sw.RxPackets != 2 {
		t.Fatalf("delivered %d of 2 under 1 credit", sw.RxPackets)
	}
	var drops uint64
	for _, n := range f.Counters().Drops {
		drops += n
	}
	if drops != 0 {
		t.Errorf("drops under credit pressure: %+v", f.Counters().Drops)
	}
}

func TestCreditsArePerVC(t *testing.T) {
	// Exhausting bulk credits must not block the management VC.
	e, f, sw, ep := twoNode(t, Config{CreditsPerVC: 1})
	_ = f
	// First bulk packet consumes the only VC0 credit and parks in the
	// switch for SwitchLatency; a management packet right behind it must
	// not wait for the credit return.
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication}, Payload: asi.AppData{Bytes: 2000}})
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication}, Payload: asi.AppData{Bytes: 2000}})
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication, TC: asi.TCManagement},
		Payload: asi.AppData{Bytes: 64}})
	mgmtAt := sim.Time(0)
	prevMgmt := uint64(0)
	for e.Step() {
		if got := f.Counters().Delivered[asi.PIApplication]; got > 0 && mgmtAt == 0 {
			// Track when the small (management-class) packet lands by
			// watching the switch's byte counter jump by its size.
			_ = got
		}
		if sw.RxBytes >= 84 && prevMgmt == 0 && sw.RxBytes%2020 != 0 {
			prevMgmt = 1
			mgmtAt = e.Now()
		}
	}
	if sw.RxPackets != 3 {
		t.Fatalf("delivered %d of 3", sw.RxPackets)
	}
	// The two bulk packets take ~8.1us + ~8.1us of serialization plus a
	// credit-gated wait; the management packet (84B, ~0.34us) on its own
	// VC must land well before the second bulk packet could.
	if mgmtAt == 0 || mgmtAt > sim.Time(12*sim.Microsecond) {
		t.Errorf("management packet landed at %v despite per-VC credits", mgmtAt)
	}
}

func TestLinkDownFlushesQueues(t *testing.T) {
	e, f, sw, ep := twoNode(t, Config{CreditsPerVC: 1})
	// Park packets in the ep->sw queue, then kill the switch: queued
	// packets must not be delivered after the link drops.
	for i := 0; i < 5; i++ {
		ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication}, Payload: asi.AppData{Bytes: 2000}})
	}
	if err := f.SetDeviceDown(sw.ID, true); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if sw.RxPackets > 1 {
		t.Errorf("dead switch consumed %d packets", sw.RxPackets)
	}
	// Bring it back: the fabric must be usable again.
	if err := f.SetDeviceUp(sw.ID, true); err != nil {
		t.Fatal(err)
	}
	ep.Inject(&asi.Packet{Header: asi.RouteHeader{PI: asi.PIApplication}, Payload: asi.AppData{Bytes: 100}})
	before := sw.RxPackets
	e.Run()
	if sw.RxPackets != before+1 {
		t.Error("fabric unusable after link retrain")
	}
}

func TestBackwardPacketToNowhereIsDropped(t *testing.T) {
	// A response whose backward pool overruns is a route error.
	e, f, _, ep := twoNode(t, Config{})
	pkt := &asi.Packet{
		Header: asi.RouteHeader{
			Dir: true, TurnPointer: asi.TurnPoolBits,
			PI: asi.PI4DeviceManagement, TC: asi.TCManagement,
		},
		Payload: &asi.PI4{Op: asi.PI4ReadCompletionData, Tag: 1},
	}
	ep.Inject(pkt)
	e.Run()
	if f.Counters().Drops[DropRouteError] != 1 {
		t.Errorf("drops: %+v", f.Counters().Drops)
	}
}

func TestEndpointPathToSwitchSelf(t *testing.T) {
	// Empty-pool forward packets terminate at the first switch: the
	// canonical "talk to my neighbour" route used by discovery's very
	// first probe.
	e, f, sw, ep := twoNode(t, Config{})
	got := 0
	_ = f
	hdr, err := route.Header(nil, asi.PI4DeviceManagement)
	if err != nil {
		t.Fatal(err)
	}
	ep.Inject(&asi.Packet{Header: hdr, Payload: &asi.PI4{Op: asi.PI4ReadRequest, Tag: 9, Count: 1}})
	ep.SetHandler(HandlerFunc(func(port int, pkt *asi.Packet) { got++ }))
	e.Run()
	if sw.RxPackets != 1 || got != 1 {
		t.Errorf("request/response flow broken: sw=%d ep=%d", sw.RxPackets, got)
	}
}

// TestOneKickPerTransmission pins the serializer's wake-up: only the
// transmission that makes a serializer busy schedules the kick for the
// instant it frees, and nothing else schedules one. A burst of
// application packets from one endpoint through a switch to another, at
// the default credits, makes credit returns land and packets queue while
// a serializer is busy. No generator runs (the burst is injected before
// the run), so every event is one of three:
//
//   - a flight's arrival, one per link transmission;
//   - a serializer kick, one per link transmission;
//   - a cut-through routing decision, one per packet reaching the switch.
//
// The run therefore processes exactly 2*TxPackets + burst events, with
// TxPackets = 2*burst (two hops each).
func TestOneKickPerTransmission(t *testing.T) {
	tp := topo.New("line")
	sw := tp.AddSwitch(4, "sw")
	src, dst := tp.AddEndpoint("src"), tp.AddEndpoint("dst")
	if err := tp.Connect(src, 0, sw, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(sw, 1, dst, 0); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	f, err := New(e, tp, Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := route.Header(route.Path{{Ports: 4, In: 0, Out: 1}}, asi.PIApplication)
	if err != nil {
		t.Fatal(err)
	}
	hdr.TC = 0 // bulk VC, default credits
	const burst = 32
	for i := 0; i < burst; i++ {
		f.Device(src).Inject(&asi.Packet{Header: hdr, Payload: asi.AppData{Bytes: 1000}})
	}
	// Each credit return the sender sees lands while it serializes a
	// later packet of the burst.
	h := &f.Device(src).ports[0].link.half[0]
	returnsWhileBusy := 0
	for credits := h.credits[0]; e.Step(); credits = h.credits[0] {
		if h.credits[0] > credits && h.busyUntil > e.Now() {
			returnsWhileBusy++
		}
	}
	if returnsWhileBusy == 0 {
		t.Fatal("no credit return landed while the sender was busy")
	}
	c := f.Counters()
	if c.TxPackets != 2*burst || f.Device(dst).RxPackets != burst {
		t.Fatalf("tx %d, delivered %d; want %d and %d", c.TxPackets, f.Device(dst).RxPackets, 2*burst, burst)
	}
	if want := 2*c.TxPackets + burst; e.Processed != want {
		t.Errorf("processed %d events, want %d: 2 per transmission (arrival, kick) + 1 per routing decision", e.Processed, want)
	}
}
