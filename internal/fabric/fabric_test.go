package fabric

import (
	"strings"
	"testing"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
)

// testFabric builds a fabric over the given topology with default config.
func testFabric(t *testing.T, tp *topo.Topology) (*sim.Engine, *Fabric) {
	t.Helper()
	e := sim.NewEngine()
	f, err := New(e, tp, Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return e, f
}

// firstEndpoint returns the lowest-ID endpoint device.
func firstEndpoint(f *Fabric) *Device {
	for _, d := range f.Devices() {
		if d.Type == asi.DeviceEndpoint {
			return d
		}
	}
	panic("no endpoint")
}

type rx struct {
	at   sim.Time
	port int
	pkt  *asi.Packet
}

// attachCapture collects every management packet delivered to ep.
func attachCapture(e *sim.Engine, ep *Device) *[]rx {
	var got []rx
	ep.SetHandler(HandlerFunc(func(port int, pkt *asi.Packet) {
		got = append(got, rx{e.Now(), port, pkt})
	}))
	return &got
}

// readReq builds a PI-4 read request packet along the given path.
func readReq(t *testing.T, p route.Path, tag uint32, offset uint16, count uint8) *asi.Packet {
	t.Helper()
	hdr, err := route.Header(p, asi.PI4DeviceManagement)
	if err != nil {
		t.Fatal(err)
	}
	return &asi.Packet{Header: hdr, Payload: &asi.PI4{
		Op: asi.PI4ReadRequest, Tag: tag, Offset: offset, Count: count,
	}}
}

func TestPI4ReadAdjacentSwitch(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)

	// The host switch is adjacent: an empty path delivers there.
	ep.Inject(readReq(t, nil, 7, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()

	if len(*got) != 1 {
		t.Fatalf("received %d packets, want 1", len(*got))
	}
	resp := (*got)[0].pkt.Payload.(*asi.PI4)
	if resp.Op != asi.PI4ReadCompletionData || resp.Tag != 7 {
		t.Fatalf("unexpected completion: %+v", resp)
	}
	g, err := asi.ParseGeneralInfo(resp.Data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != asi.DeviceSwitch || g.Ports != topo.GridPorts {
		t.Errorf("general info: %+v", g)
	}
	if int(resp.ArrivalPort) != topo.PortHost {
		t.Errorf("ArrivalPort = %d, want %d", resp.ArrivalPort, topo.PortHost)
	}
	// Timing sanity: request serialization + propagation + switch
	// latency + device service + response, so strictly more than the
	// 2us service time and well under 10us.
	at := (*got)[0].at
	if at < sim.Time(2*sim.Microsecond) || at > sim.Time(10*sim.Microsecond) {
		t.Errorf("completion arrived at %v", at)
	}
}

func TestPI4ReadAcrossMultipleHops(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f) // ep(0,0), node 9, host switch sw(0,0)=node 0
	got := attachCapture(e, ep)

	// Path to sw(0,2): enter sw(0,0) at host port, go east; enter
	// sw(0,1) at west, go east; deliver at sw(0,2).
	p := route.Path{
		{Ports: 16, In: topo.PortHost, Out: topo.PortEast},
		{Ports: 16, In: topo.PortWest, Out: topo.PortEast},
	}
	ep.Inject(readReq(t, p, 1, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()

	if len(*got) != 1 {
		t.Fatalf("received %d packets, want 1", len(*got))
	}
	resp := (*got)[0].pkt.Payload.(*asi.PI4)
	g, _ := asi.ParseGeneralInfo(resp.Data)
	sw02 := f.Device(topo.NodeID(2))
	if g.DSN != sw02.DSN {
		t.Errorf("read DSN %v, want %v (sw(0,2))", g.DSN, sw02.DSN)
	}
	if int(resp.ArrivalPort) != topo.PortWest {
		t.Errorf("ArrivalPort = %d, want %d", resp.ArrivalPort, topo.PortWest)
	}
}

func TestPI4ReadRemoteEndpoint(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)

	// Path to ep(0,1): through sw(0,0) east, then sw(0,1) to its host.
	p := route.Path{
		{Ports: 16, In: topo.PortHost, Out: topo.PortEast},
		{Ports: 16, In: topo.PortWest, Out: topo.PortHost},
	}
	ep.Inject(readReq(t, p, 2, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()

	if len(*got) != 1 {
		t.Fatalf("received %d packets, want 1", len(*got))
	}
	g, err := asi.ParseGeneralInfo((*got)[0].pkt.Payload.(*asi.PI4).Data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != asi.DeviceEndpoint || g.Ports != 1 {
		t.Errorf("general info: %+v", g)
	}
}

func TestPI4ReadErrorCompletion(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)

	ep.Inject(readReq(t, nil, 3, 60000, 4)) // far beyond capability end
	e.Run()

	if len(*got) != 1 {
		t.Fatalf("received %d packets, want 1", len(*got))
	}
	resp := (*got)[0].pkt.Payload.(*asi.PI4)
	if resp.Op != asi.PI4ReadCompletionError || resp.Tag != 3 {
		t.Errorf("expected error completion, got %+v", resp)
	}
}

func TestPI4WriteEventRouteAndEmitPI5(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)

	// Program the adjacent switch's event route: from sw(0,0), a packet
	// to ep(0,0) goes out the host port; the switch originates with
	// virtual ingress asi.SourceVirtualIngress.
	sw := f.Device(0)
	evPath := route.Path{{Ports: 16, In: asi.SourceVirtualIngress, Out: topo.PortHost}}
	pool, ptr, err := route.Encode(evPath)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _ := route.Header(nil, asi.PI4DeviceManagement)
	ep.Inject(&asi.Packet{Header: hdr, Payload: &asi.PI4{
		Op: asi.PI4WriteRequest, Tag: 5,
		Offset: asi.EventRouteOffset(16),
		Data:   asi.EncodeEventRoute(pool, ptr),
	}})
	e.Run()

	if len(*got) != 1 || (*got)[0].pkt.Payload.(*asi.PI4).Op != asi.PI4WriteCompletion {
		t.Fatalf("write completion missing: %+v", got)
	}

	// Now the switch can report events.
	sw.EmitPI5(asi.PI5PortDown, 2)
	e.Run()
	if len(*got) != 2 {
		t.Fatalf("PI-5 not delivered: %d packets", len(*got))
	}
	ev := (*got)[1].pkt.Payload.(asi.PI5)
	if ev.Code != asi.PI5PortDown || ev.Port != 2 || ev.Reporter != sw.DSN {
		t.Errorf("PI-5 = %+v", ev)
	}
}

func TestEmitPI5WithoutRouteIsSilent(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)
	f.Device(0).EmitPI5(asi.PI5PortDown, 1)
	e.Run()
	if len(*got) != 0 {
		t.Errorf("PI-5 delivered without event route: %+v", got)
	}
}

// programEventRoutes writes a valid event route toward ep into every alive
// device, using BFS paths (test shortcut for what the FM does after
// discovery).
func programEventRoutes(t *testing.T, f *Fabric, ep *Device) {
	t.Helper()
	for _, d := range f.Devices() {
		if d == ep || !d.Alive() {
			continue
		}
		p := bfsPath(f.Topo, ep.ID, d.ID) // FM -> device
		if p == nil {
			continue
		}
		var evPath route.Path
		rev := route.Reverse(p)
		if d.Type == asi.DeviceSwitch {
			// The FM->device path ends with a hop whose egress faces
			// the device; the device's first hop when originating
			// retraces it from the virtual ingress.
			arrival := arrivalPortOf(f, ep.ID, d.ID)
			evPath = append(route.Path{{Ports: d.Ports(), In: asi.SourceVirtualIngress, Out: arrival}}, rev...)
		} else {
			evPath = rev
		}
		pool, ptr, err := route.Encode(evPath)
		if err != nil {
			t.Fatalf("%s: %v", d.Label, err)
		}
		if err := d.Config.Write(asi.EventRouteOffset(d.Ports()), asi.EncodeEventRoute(pool, ptr)); err != nil {
			t.Fatalf("%s: %v", d.Label, err)
		}
	}
}

// arrivalPortOf finds the port of dst on which packets from src arrive
// (last hop of the BFS path).
func arrivalPortOf(f *Fabric, src, dst topo.NodeID) int {
	// The BFS path's final hop egress lands on dst; find dst's port by
	// checking the peer of the last switch's egress.
	p := bfsPath(f.Topo, src, dst)
	if len(p) == 0 {
		// Adjacent to src endpoint: dst port is the peer of src port 0.
		_, port, _ := f.Topo.Peer(src, 0)
		return port
	}
	// Reconstruct: walk the path from src.
	node := src
	inPort := -1
	_ = inPort
	// First hop: src endpoint port 0 to first switch.
	peer, peerPort, _ := f.Topo.Peer(node, 0)
	node, inPort = peer, peerPort
	for _, h := range p {
		peer, peerPort, _ = f.Topo.Peer(node, h.Out)
		node, inPort = peer, peerPort
	}
	return inPort
}

func TestHotRemovalTriggersNeighbourPI5(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)
	programEventRoutes(t, f, ep)

	// Remove the centre switch sw(1,1), node 4. Five peers notice (four
	// switches and the stranded endpoint ep(1,1)), but ep(1,1)'s only
	// link just died and switch sw(2,1)'s BFS event route runs through
	// the removed switch, so exactly 3 reports reach the FM — a real
	// property of event routing after a failure, not a model artefact.
	if err := f.SetDeviceDown(4, false); err != nil {
		t.Fatal(err)
	}
	e.Run()

	var downs int
	for _, r := range *got {
		if ev, ok := r.pkt.Payload.(asi.PI5); ok && ev.Code == asi.PI5PortDown {
			downs++
		}
	}
	if downs != 3 {
		t.Errorf("received %d port-down events, want 3 (one route dies with the switch, one reporter is stranded)", downs)
	}

	// Restore: all five peers report, and every event route works again.
	*got = (*got)[:0]
	if err := f.SetDeviceUp(4, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	var ups int
	for _, r := range *got {
		if ev, ok := r.pkt.Payload.(asi.PI5); ok && ev.Code == asi.PI5PortUp {
			ups++
		}
	}
	if ups != 5 {
		t.Errorf("received %d port-up events, want 5", ups)
	}
}

func TestQuietRemovalEmitsNothing(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)
	programEventRoutes(t, f, ep)

	if err := f.SetDeviceDown(4, true); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(*got) != 0 {
		t.Errorf("quiet removal delivered %d packets", len(*got))
	}
	if err := f.SetDeviceDown(4, true); err == nil {
		t.Error("double removal accepted")
	}
	if err := f.SetDeviceUp(4, true); err != nil {
		t.Fatal(err)
	}
	if err := f.SetDeviceUp(4, true); err == nil {
		t.Error("double restore accepted")
	}
}

func TestAliveReachableAfterRemoval(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	if got := f.AliveReachableFrom(ep.ID); got != 18 {
		t.Fatalf("initial reachable = %d, want 18", got)
	}
	// Removing a corner switch strands it and its endpoint.
	if err := f.SetDeviceDown(8, true); err != nil { // sw(2,2)
		t.Fatal(err)
	}
	e.Run()
	if got := f.AliveReachableFrom(ep.ID); got != 16 {
		t.Errorf("reachable after corner removal = %d, want 16", got)
	}
}

func TestPacketToDeadDeviceIsDropped(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)
	if err := f.SetDeviceDown(1, true); err != nil { // sw(0,1)
		t.Fatal(err)
	}
	p := route.Path{{Ports: 16, In: topo.PortHost, Out: topo.PortEast}}
	ep.Inject(readReq(t, p, 9, 0, 1))
	e.Run()
	if len(*got) != 0 {
		t.Errorf("completion from dead device: %+v", got)
	}
	c := f.Counters()
	if c.Drops[DropInactivePort]+c.Drops[DropDeadDevice] == 0 {
		t.Error("no drop recorded")
	}
}

// TestRouteErrorDrops pins what a switch does with headers it cannot
// route — and with one it can: routing is decided by the turn pool alone,
// so a PI the model gives no meaning is forwarded like any other, and
// a multicast header, which names a forwarding-table entry no switch has,
// is a route error even when its turn pool would have delivered it.
func TestRouteErrorDrops(t *testing.T) {
	// A valid route to the 2-hop endpoint ep(0,1) of a 3x3 mesh.
	toEp01, err := route.Header(route.Path{
		{Ports: 16, In: topo.PortHost, Out: topo.PortEast},
		{Ports: 16, In: topo.PortWest, Out: topo.PortHost},
	}, asi.PIApplication)
	if err != nil {
		t.Fatal(err)
	}
	multicast, unknownPI := toEp01, toEp01
	multicast.Multicast, multicast.MGID = true, 3
	unknownPI.PI = 3
	for _, tc := range []struct {
		name              string
		hdr               asi.RouteHeader
		drops, deliveries uint64
	}{
		// 2 leftover bits: not enough for a 16-port switch turn.
		{"pool exhausted mid-path", asi.RouteHeader{TurnPool: 3, TurnPointer: 2, PI: asi.PIApplication}, 1, 0},
		{"routable", toEp01, 0, 1},
		{"multicast flag", multicast, 1, 0},
		{"PI the model does not define", unknownPI, 0, 1},
	} {
		e, f := testFabric(t, topo.Mesh(3, 3))
		firstEndpoint(f).Inject(&asi.Packet{Header: tc.hdr, Payload: asi.AppData{Bytes: 64}})
		e.Run()
		c := f.Counters()
		if got := c.Drops[DropRouteError]; got != tc.drops {
			t.Errorf("%s: route-error drops = %d, want %d", tc.name, got, tc.drops)
		}
		if got := c.Delivered[tc.hdr.PI]; got != tc.deliveries {
			t.Errorf("%s: deliveries = %d, want %d", tc.name, got, tc.deliveries)
		}
	}
}

func TestManagementPriorityOverBulkTraffic(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)

	// Saturate the ep->switch link with large bulk packets, then send a
	// management read. The management packet must not wait behind the
	// whole bulk queue.
	p := route.Path{
		{Ports: 16, In: topo.PortHost, Out: topo.PortEast},
		{Ports: 16, In: topo.PortWest, Out: topo.PortHost},
	}
	hdr, err := route.Header(p, asi.PIApplication)
	if err != nil {
		t.Fatal(err)
	}
	hdr.TC = 0
	const bulkBytes = 2000
	for i := 0; i < 50; i++ {
		ep.Inject(&asi.Packet{Header: hdr, Payload: asi.AppData{Bytes: bulkBytes}})
	}
	ep.Inject(readReq(t, nil, 11, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()

	if len(*got) != 1 {
		t.Fatalf("received %d management packets, want 1", len(*got))
	}
	// 50 bulk packets of ~2KB at 2Gbps are ~400us of serialization; the
	// management completion must arrive far sooner because VC2 wins
	// arbitration after at most one bulk packet's residual time.
	if at := (*got)[0].at; at > sim.Time(40*sim.Microsecond) {
		t.Errorf("management completion delayed to %v by bulk traffic", at)
	}
}

func TestCreditBackpressureDeliversEverything(t *testing.T) {
	e := sim.NewEngine()
	cfg := Config{CreditsPerVC: 2}
	f, err := New(e, topo.Mesh(3, 3), cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	ep := firstEndpoint(f)
	dst := f.Device(10) // ep(0,1)
	received := 0
	dst.SetHandler(HandlerFunc(func(port int, pkt *asi.Packet) {}))
	// Count deliveries at the raw counter level: AppData to an endpoint
	// is consumed silently, so use RxPackets.
	p := route.Path{
		{Ports: 16, In: topo.PortHost, Out: topo.PortEast},
		{Ports: 16, In: topo.PortWest, Out: topo.PortHost},
	}
	hdr, err := route.Header(p, asi.PIApplication)
	if err != nil {
		t.Fatal(err)
	}
	hdr.TC = 0
	const n = 200
	for i := 0; i < n; i++ {
		ep.Inject(&asi.Packet{Header: hdr, Payload: asi.AppData{Bytes: 256}})
	}
	e.Run()
	received = int(dst.RxPackets)
	if received != n {
		t.Errorf("delivered %d of %d packets under tight credits", received, n)
	}
	var drops uint64
	for _, d := range f.Counters().Drops {
		drops += d
	}
	if drops != 0 {
		t.Errorf("unexpected drops: %+v", f.Counters().Drops)
	}
}

func TestSerializationTiming(t *testing.T) {
	_, f := testFabric(t, topo.Mesh(3, 3))
	// 250 bytes at 2 Gbps = 1000 ns.
	if got := f.serialization(250); got != 1000*sim.Nanosecond {
		t.Errorf("serialization(250B) = %v, want 1us", got)
	}
}

func TestCountersAccumulate(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	attachCapture(e, ep)
	ep.Inject(readReq(t, nil, 1, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
	e.Run()
	c := f.Counters()
	if c.TxPackets < 2 { // request + completion
		t.Errorf("TxPackets = %d", c.TxPackets)
	}
	if c.TxBytes == 0 {
		t.Error("TxBytes = 0")
	}
	if c.Delivered[asi.PI4DeviceManagement] < 2 {
		t.Errorf("Delivered[PI4] = %d", c.Delivered[asi.PI4DeviceManagement])
	}
}

func TestTrafficGenRuns(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	g := NewTrafficGen(f, sim.NewRNG(7), 10*sim.Microsecond, 512)
	g.Start()
	e.RunUntil(sim.Time(2 * sim.Millisecond))
	g.Stop()
	e.Run()
	if g.Injected == 0 {
		t.Fatal("traffic generator injected nothing")
	}
	if f.Counters().Drops[DropRouteError] != 0 {
		t.Errorf("traffic misrouted: %+v", f.Counters().Drops)
	}
	// All injected packets eventually arrive somewhere.
	var rx uint64
	for _, d := range f.Devices() {
		if d.Type == asi.DeviceEndpoint {
			rx += d.RxPackets
		}
	}
	if rx == 0 {
		t.Error("no application packets delivered")
	}
}

func TestBFSPathMatchesFabricRouting(t *testing.T) {
	e, f := testFabric(t, topo.Torus(4, 4))
	ep := firstEndpoint(f)
	// Route to every other endpoint via the computed path and verify the
	// right device answers (its DSN comes back in the read).
	for _, dstID := range f.Topo.Endpoints() {
		if dstID == ep.ID {
			continue
		}
		dst := f.Device(dstID)
		p := bfsPath(f.Topo, ep.ID, dstID)
		if p == nil {
			t.Fatalf("no path to %s", dst.Label)
		}
		var answer asi.DSN
		ep.SetHandler(HandlerFunc(func(port int, pkt *asi.Packet) {
			if p4, ok := pkt.Payload.(*asi.PI4); ok && p4.Op == asi.PI4ReadCompletionData {
				if g, err := asi.ParseGeneralInfo(p4.Data); err == nil {
					answer = g.DSN
				}
			}
		}))
		ep.Inject(readReq(t, p, 1, asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
		e.Run()
		if answer != dst.DSN {
			t.Errorf("path to %s answered by %v", dst.Label, answer)
		}
	}
}

func TestNewRejectsInvalidTopology(t *testing.T) {
	bad := topo.New("bad")
	bad.AddSwitch(4, "a")
	bad.AddSwitch(4, "b")
	if _, err := New(sim.NewEngine(), bad, Config{}, nil); err == nil {
		t.Error("disconnected topology accepted")
	}
}

func TestDeviceAccessors(t *testing.T) {
	_, f := testFabric(t, topo.Mesh(3, 3))
	d := f.Device(0)
	if d.Ports() != topo.GridPorts {
		t.Errorf("Ports() = %d", d.Ports())
	}
	if !d.PortActive(topo.PortHost) {
		t.Error("host port inactive")
	}
	if d.PortActive(15) {
		t.Error("uncabled port active")
	}
	if d.PortActive(-1) || d.PortActive(99) {
		t.Error("out-of-range PortActive true")
	}
}

func TestRandomSwitchPicksSwitches(t *testing.T) {
	_, f := testFabric(t, topo.Mesh(3, 3))
	rng := sim.NewRNG(3)
	for i := 0; i < 50; i++ {
		id := f.RandomSwitch(rng)
		if f.Device(id).Type != asi.DeviceSwitch {
			t.Fatalf("RandomSwitch returned %v", f.Device(id).Type)
		}
	}
}

func TestInjectFromSwitchPanics(t *testing.T) {
	_, f := testFabric(t, topo.Mesh(3, 3))
	defer func() {
		if recover() == nil {
			t.Error("switch Inject did not panic")
		}
	}()
	f.Device(0).Inject(&asi.Packet{})
}

func TestSetHandlerOnSwitchPanics(t *testing.T) {
	_, f := testFabric(t, topo.Mesh(3, 3))
	defer func() {
		if recover() == nil {
			t.Error("switch SetHandler did not panic")
		}
	}()
	f.Device(0).SetHandler(HandlerFunc(func(int, *asi.Packet) {}))
}

func TestDropReasonStrings(t *testing.T) {
	for r := DropReason(0); r < numDropReasons; r++ {
		if r.String() == "" {
			t.Error("empty DropReason string")
		}
	}
	if DropReason(99).String() == "" {
		t.Error("unknown DropReason empty")
	}
}

// TestNewRejectsImpossibleRadix: a radix outside what the spec allows is
// refused by topology validation before any per-port slab is sized — no
// panic, and no work proportional to the bogus port count.
func TestNewRejectsImpossibleRadix(t *testing.T) {
	cases := []struct {
		name  string
		typ   asi.DeviceType
		ports int
	}{
		{"lone switch -1", asi.DeviceSwitch, -1},
		{"switch -1", asi.DeviceSwitch, -1},
		{"switch 0", asi.DeviceSwitch, 0},
		{"switch 1", asi.DeviceSwitch, 1},
		{"switch max+1", asi.DeviceSwitch, asi.MaxSwitchPorts + 1},
		{"switch 1<<24", asi.DeviceSwitch, 1 << 24},
		{"endpoint -1", asi.DeviceEndpoint, -1},
		{"endpoint 0", asi.DeviceEndpoint, 0},
		{"endpoint max+1", asi.DeviceEndpoint, asi.MaxEndpointPorts + 1},
		{"endpoint 1<<24", asi.DeviceEndpoint, 1 << 24},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := topo.New(tc.name)
			sw := tp.AddSwitch(4, "sw")
			victim := sw
			if !strings.HasPrefix(tc.name, "lone") {
				ep := tp.AddEndpoint("ep")
				if err := tp.Connect(sw, 0, ep, 0); err != nil {
					t.Fatal(err)
				}
				if tc.typ == asi.DeviceEndpoint {
					victim = ep
				}
			}
			tp.Nodes[victim].Ports = tc.ports
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				_, err = New(sim.NewEngine(), tp, Config{}, sim.NewRNG(1))
			})
			if err == nil {
				t.Fatalf("fabric.New accepted a %d-port %v", tc.ports, tc.typ)
			}
			if allocs > 16 {
				t.Errorf("rejecting the radix took %.0f allocations, want <= 16", allocs)
			}
		})
	}
}
