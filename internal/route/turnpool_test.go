package route

import (
	"testing"
	"testing/quick"

	"repro/internal/asi"
	"repro/internal/sim"
)

func TestTurnWidth(t *testing.T) {
	cases := []struct{ ports, want int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {17, 5}, {32, 5}, {256, 8},
	}
	for _, c := range cases {
		if got := TurnWidth(c.ports); got != c.want {
			t.Errorf("TurnWidth(%d) = %d, want %d", c.ports, got, c.want)
		}
	}
}

func TestTurnOutPortInverse(t *testing.T) {
	for ports := 2; ports <= 32; ports++ {
		for in := 0; in < ports; in++ {
			for out := 0; out < ports; out++ {
				if in == out {
					continue
				}
				turn := Turn(ports, in, out)
				if turn < 0 || turn >= ports {
					t.Fatalf("Turn(%d,%d,%d) = %d out of range", ports, in, out, turn)
				}
				if got := OutPort(ports, in, turn); got != out {
					t.Fatalf("OutPort(%d,%d,%d) = %d, want %d", ports, in, turn, got, out)
				}
				if got := backPort(ports, out, turn); got != in {
					t.Fatalf("backPort(%d,%d,%d) = %d, want %d", ports, out, turn, got, in)
				}
			}
		}
	}
}

// randomPath builds a valid random path of the given length over 16-port
// switches.
func randomPath(rng *sim.RNG, hops int) Path {
	p := make(Path, hops)
	for i := range p {
		ports := []int{4, 8, 16}[rng.Intn(3)]
		in := rng.Intn(ports)
		out := rng.Intn(ports)
		for out == in {
			out = rng.Intn(ports)
		}
		p[i] = Hop{Ports: uint16(ports), In: uint8(in), Out: uint8(out)}
	}
	return p
}

// walkForward simulates forward traversal through the path's switches and
// reports whether the packet is delivered exactly at the end with the
// expected egress ports, returning the header as the destination sees it.
func walkForward(t *testing.T, p Path, h asi.RouteHeader) asi.RouteHeader {
	t.Helper()
	for i, hop := range p {
		d, err := SwitchRoute(&h, int(hop.Ports), int(hop.In))
		if err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		if d.Deliver {
			t.Fatalf("hop %d: premature delivery", i)
		}
		if d.Out != int(hop.Out) {
			t.Fatalf("hop %d: routed to port %d, want %d", i, d.Out, int(hop.Out))
		}
	}
	if h.TurnPointer != 0 {
		t.Fatalf("pool not exhausted at destination: %d bits left", h.TurnPointer)
	}
	return h
}

func TestForwardTraversalFollowsPath(t *testing.T) {
	rng := sim.NewRNG(1)
	for trial := 0; trial < 200; trial++ {
		p := randomPath(rng, 1+rng.Intn(10))
		if p.Bits() > asi.TurnPoolBits {
			continue
		}
		h, err := Header(p, asi.PI4DeviceManagement)
		if err != nil {
			t.Fatal(err)
		}
		walkForward(t, p, h)
	}
}

func TestBackwardTraversalRetracesPath(t *testing.T) {
	rng := sim.NewRNG(2)
	for trial := 0; trial < 200; trial++ {
		p := randomPath(rng, 1+rng.Intn(10))
		if p.Bits() > asi.TurnPoolBits {
			continue
		}
		h, err := Header(p, asi.PI4DeviceManagement)
		if err != nil {
			t.Fatal(err)
		}
		arrived := walkForward(t, p, h)
		// The destination reverses the header and sends the response out
		// the port it arrived on; switches are visited in reverse order.
		back := arrived.Reverse()
		for i := len(p) - 1; i >= 0; i-- {
			hop := p[i]
			d, err := SwitchRoute(&back, int(hop.Ports), int(hop.Out))
			if err != nil {
				t.Fatalf("reverse hop %d: %v", i, err)
			}
			if d.Deliver {
				t.Fatalf("reverse hop %d: premature delivery", i)
			}
			if d.Out != int(hop.In) {
				t.Fatalf("reverse hop %d: routed to port %d, want %d", i, d.Out, int(hop.In))
			}
		}
		if int(back.TurnPointer) != p.Bits() {
			t.Fatalf("backward pointer ended at %d, want %d", back.TurnPointer, p.Bits())
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, hops uint8) bool {
		rng := sim.NewRNG(seed)
		p := randomPath(rng, int(hops%12)+1)
		if p.Bits() > asi.TurnPoolBits {
			return true // vacuous: encoding correctly refuses below
		}
		h, err := Header(p, asi.PI5EventReporting)
		if err != nil {
			return false
		}
		// Forward walk.
		for _, hop := range p {
			d, err := SwitchRoute(&h, int(hop.Ports), int(hop.In))
			if err != nil || d.Deliver || d.Out != int(hop.Out) {
				return false
			}
		}
		if h.TurnPointer != 0 {
			return false
		}
		// Backward walk.
		back := h.Reverse()
		for i := len(p) - 1; i >= 0; i-- {
			hop := p[i]
			d, err := SwitchRoute(&back, int(hop.Ports), int(hop.Out))
			if err != nil || d.Deliver || d.Out != int(hop.In) {
				return false
			}
		}
		return int(back.TurnPointer) == p.Bits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsInvalidHops(t *testing.T) {
	bad := []Path{
		{{Ports: 1, In: 0, Out: 0}},
		{{Ports: 4, In: 4, Out: 2}},
		{{Ports: 4, In: 0, Out: 4}},
		{{Ports: asi.MaxSwitchPorts + 1, In: 0, Out: 1}},
	}
	for _, p := range bad {
		if _, _, err := Encode(p); err == nil {
			t.Errorf("Encode(%v) accepted", p)
		}
		if _, err := HeaderNext(Path{{Ports: 4, In: 0, Out: 1}}, p[0], asi.PI4DeviceManagement); err == nil {
			t.Errorf("HeaderNext(..., %+v) accepted", p[0])
		}
	}
	// In == Out encodes the maximal turn and is legal (virtual-source
	// hops in event routes).
	if _, _, err := Encode(Path{{Ports: 4, In: 2, Out: 2}}); err != nil {
		t.Errorf("self-turn hop rejected: %v", err)
	}
}

func TestEncodeRejectsOverlongPath(t *testing.T) {
	// 17 hops of 16-port switches need 68 bits > 64.
	p := make(Path, 17)
	for i := range p {
		p[i] = Hop{Ports: 16, In: 0, Out: 1}
	}
	if _, _, err := Encode(p); err == nil {
		t.Error("overlong path accepted")
	}
	// 16 hops exactly fit.
	if _, _, err := Encode(p[:16]); err != nil {
		t.Errorf("16-hop path rejected: %v", err)
	}
}

func TestEmptyPathDeliversImmediately(t *testing.T) {
	h, err := Header(nil, asi.PI4DeviceManagement)
	if err != nil {
		t.Fatal(err)
	}
	if h.TurnPointer != 0 {
		t.Fatalf("empty path pointer = %d", h.TurnPointer)
	}
	d, err := SwitchRoute(&h, 16, 3)
	if err != nil || !d.Deliver {
		t.Errorf("empty-pool forward packet not delivered at first switch: %+v %v", d, err)
	}
}

func TestSwitchRouteErrors(t *testing.T) {
	// Forward with too few bits for this switch's width.
	h := asi.RouteHeader{TurnPool: 1, TurnPointer: 2}
	if _, err := SwitchRoute(&h, 16, 0); err == nil {
		t.Error("underflowing forward pool accepted")
	}
	// Forward turn out of range: 10-port switch, width 4, turn 15.
	h = asi.RouteHeader{TurnPool: 0xf, TurnPointer: 4}
	if _, err := SwitchRoute(&h, 10, 0); err == nil {
		t.Error("out-of-range forward turn accepted")
	}
	if h.TurnPointer != 4 {
		t.Errorf("failed route mutated pointer to %d", h.TurnPointer)
	}
	// Backward overflow.
	h = asi.RouteHeader{Dir: true, TurnPointer: asi.TurnPoolBits}
	if _, err := SwitchRoute(&h, 16, 0); err == nil {
		t.Error("overflowing backward pool accepted")
	}
	// Backward turn out of range.
	h = asi.RouteHeader{Dir: true, TurnPool: 0xf, TurnPointer: 0}
	if _, err := SwitchRoute(&h, 10, 0); err == nil {
		t.Error("out-of-range backward turn accepted")
	}
}

func TestReverse(t *testing.T) {
	p := Path{{Ports: 16, In: 2, Out: 7}, {Ports: 4, In: 1, Out: 3}}
	r := Reverse(p)
	want := Path{{Ports: 4, In: 3, Out: 1}, {Ports: 16, In: 7, Out: 2}}
	if len(r) != len(want) {
		t.Fatalf("Reverse length %d", len(r))
	}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Reverse[%d] = %+v, want %+v", i, r[i], want[i])
		}
	}
	if rr := Reverse(r); rr[0] != p[0] || rr[1] != p[1] {
		t.Error("double Reverse is not identity")
	}
}

func TestReverseRoundTripProperty(t *testing.T) {
	f := func(seed uint64, hops uint8) bool {
		p := randomPath(sim.NewRNG(seed), int(hops%8)+1)
		rr := Reverse(Reverse(p))
		for i := range p {
			if rr[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodePortCountRange pins the narrow hop's boundary: a port count
// reaches asi.MaxSwitchPorts and a port index 255, and nothing past them
// encodes, so no wider count aliases a narrower one.
func TestEncodePortCountRange(t *testing.T) {
	for _, c := range []struct {
		ports   uint16
		in, out uint8
		ok      bool
	}{
		{ports: 255, in: 0, out: 254, ok: true},
		{ports: 256, in: 0, out: 255, ok: true},
		{ports: 256, in: 255, out: 255, ok: true},
		{ports: 257, in: 0, out: 1},
		{ports: 300, in: 0, out: 1},
		{ports: 255, in: 0, out: 255},
	} {
		_, _, err := Encode(Path{{Ports: c.ports, In: c.in, Out: c.out}})
		if (err == nil) != c.ok {
			t.Errorf("Encode(ports %d, %d->%d) error %v, want ok=%v", c.ports, c.in, c.out, err, c.ok)
		}
	}
}

// TestHeaderNextMatchesExtend pins a lazy probe's header: the parent's
// path plus one hop encodes exactly as the extended path does.
func TestHeaderNextMatchesExtend(t *testing.T) {
	rng := sim.NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		p := randomPath(rng, 1+rng.Intn(12))
		base, next := p[:len(p)-1], p[len(p)-1]
		want, werr := Header(p, asi.PI4DeviceManagement)
		got, gerr := HeaderNext(base, next, asi.PI4DeviceManagement)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Fatalf("HeaderNext(%v, %+v) = %+v, %v; Header of the extended path = %+v, %v", base, next, got, gerr, want, werr)
		}
	}
	if got, _ := HeaderNext(nil, Hop{}, asi.PI4DeviceManagement); got.TurnPointer != 0 {
		t.Errorf("the zero Hop added %d turn bits", got.TurnPointer)
	}
}

func TestExtendDoesNotAliasPrefix(t *testing.T) {
	base := Path{{Ports: 16, In: 0, Out: 1}}
	a := Extend(base, Hop{Ports: 16, In: 2, Out: 3})
	b := Extend(base, Hop{Ports: 16, In: 4, Out: 5})
	if a[1] == b[1] {
		t.Fatal("test setup: extensions identical")
	}
	if a[0] != base[0] || b[0] != base[0] {
		t.Error("Extend corrupted shared prefix")
	}
	if len(base) != 1 {
		t.Error("Extend mutated base length")
	}
}

func TestPathString(t *testing.T) {
	if Path(nil).String() != "<direct>" {
		t.Error("empty path String")
	}
	p := Path{{Ports: 16, In: 0, Out: 3}, {Ports: 16, In: 1, Out: 2}}
	if p.String() != "0->3 1->2" {
		t.Errorf("String() = %q", p.String())
	}
}

func TestBits(t *testing.T) {
	p := Path{{Ports: 16, In: 0, Out: 1}, {Ports: 4, In: 0, Out: 1}, {Ports: 2, In: 0, Out: 1}}
	if p.Bits() != 4+2+1 {
		t.Errorf("Bits() = %d, want 7", p.Bits())
	}
}
