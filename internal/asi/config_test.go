package asi

import (
	"testing"
	"testing/quick"
)

func newConfigSpace(typ DeviceType, dsn DSN, ports int, fm bool) (*ConfigSpace, error) {
	c := new(ConfigSpace)
	return c, c.Init(typ, dsn, ports, 2176, fm, nil)
}

func mustConfig(t *testing.T, typ DeviceType, dsn DSN, ports int, fm bool) *ConfigSpace {
	t.Helper()
	c, err := newConfigSpace(typ, dsn, ports, fm)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigGeneralInfoRoundTrip(t *testing.T) {
	c := mustConfig(t, DeviceSwitch, 0xdeadbeef12345678, 16, false)
	blocks, err := c.Read(GeneralInfoOffset, GeneralInfoBlocks)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseGeneralInfo(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != DeviceSwitch || g.Ports != 16 || g.DSN != 0xdeadbeef12345678 ||
		g.MaxPacket != 2176 || g.FMCapable || !g.Multicast {
		t.Errorf("general info mismatch: %+v", g)
	}
}

func TestConfigEndpointGeneralInfo(t *testing.T) {
	c := mustConfig(t, DeviceEndpoint, 7, 1, true)
	blocks, _ := c.Read(GeneralInfoOffset, GeneralInfoBlocks)
	g, err := ParseGeneralInfo(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != DeviceEndpoint || g.Ports != 1 || !g.FMCapable || g.Multicast {
		t.Errorf("general info mismatch: %+v", g)
	}
}

func TestConfigPortStateRoundTrip(t *testing.T) {
	c := mustConfig(t, DeviceSwitch, 1, 16, false)
	want := PortInfo{Active: true, SpeedGbps: 2.0, Width: 1}
	if err := c.SetPortState(5, want); err != nil {
		t.Fatal(err)
	}
	blocks, err := c.Read(PortInfoOffset(5), PortInfoBlocks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePortInfo(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("port info = %+v, want %+v", got, want)
	}
	// Other ports remain inactive.
	blocks, _ = c.Read(PortInfoOffset(6), PortInfoBlocks)
	if got, _ := ParsePortInfo(blocks); got.Active {
		t.Error("unset port reads active")
	}
}

func TestConfigPortStateRoundTripProperty(t *testing.T) {
	f := func(port uint8, active bool, width uint8) bool {
		c, err := newConfigSpace(DeviceSwitch, 1, 16, false)
		if err != nil {
			return false
		}
		p := int(port % 16)
		want := PortInfo{Active: active, SpeedGbps: 2.0, Width: int(width%4) + 1}
		if err := c.SetPortState(p, want); err != nil {
			return false
		}
		blocks, err := c.Read(PortInfoOffset(p), PortInfoBlocks)
		if err != nil {
			return false
		}
		got, err := ParsePortInfo(blocks)
		return err == nil && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfigReadBounds(t *testing.T) {
	c := mustConfig(t, DeviceEndpoint, 1, 1, false)
	if _, err := c.Read(0, 0); err == nil {
		t.Error("zero-count read accepted")
	}
	if _, err := c.Read(0, MaxReadBlocks+1); err == nil {
		t.Error("oversize read accepted")
	}
	// The capability ends with the ownership region, on a switch and on an
	// endpoint alike: nothing is readable or writable past HeadBlocks.
	for _, c := range []*ConfigSpace{c, mustConfig(t, DeviceSwitch, 2, 16, false)} {
		end := uint16(HeadBlocks(c.Ports()))
		if _, err := c.Read(end, 1); err == nil {
			t.Errorf("%d ports: read at the capability end accepted", c.Ports())
		}
		if err := c.Write(end, []uint32{1}); err == nil {
			t.Errorf("%d ports: write at the capability end accepted", c.Ports())
		}
		if _, err := c.Read(end-1, 1); err != nil {
			t.Errorf("%d ports: final-block read failed: %v", c.Ports(), err)
		}
	}
}

func TestConfigWriteOnlyEventRouteRegion(t *testing.T) {
	c := mustConfig(t, DeviceSwitch, 1, 4, false)
	off := EventRouteOffset(4)
	route := EncodeEventRoute(0xabcdef, 24)
	if err := c.Write(off, route); err != nil {
		t.Fatalf("event-route write failed: %v", err)
	}
	blocks, err := c.Read(off, EventRouteBlocks)
	if err != nil {
		t.Fatal(err)
	}
	pool, ptr, valid := DecodeEventRoute(blocks)
	if !valid || pool != 0xabcdef || ptr != 24 {
		t.Errorf("event route = (%#x,%d,%v)", pool, ptr, valid)
	}
	// General info and port info are read-only.
	if err := c.Write(0, []uint32{1}); err == nil {
		t.Error("write to general info accepted")
	}
	if err := c.Write(PortInfoOffset(0), []uint32{1}); err == nil {
		t.Error("write to port info accepted")
	}
	if err := c.Write(off, nil); err == nil {
		t.Error("empty write accepted")
	}
	if err := c.Write(uint16(HeadBlocks(4)-1), route); err == nil {
		t.Error("write past capability end accepted")
	}
	// The owner region after the event route is writable too.
	if err := c.Write(OwnerOffset(4), []uint32{1, 2}); err != nil {
		t.Errorf("owner-region write failed: %v", err)
	}
}

func TestEventRouteInvalidUntilWritten(t *testing.T) {
	c := mustConfig(t, DeviceEndpoint, 1, 1, false)
	blocks, err := c.Read(EventRouteOffset(1), EventRouteBlocks)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, valid := DecodeEventRoute(blocks); valid {
		t.Error("unwritten event route reads valid")
	}
	if _, _, valid := DecodeEventRoute(nil); valid {
		t.Error("nil event route reads valid")
	}
}

func TestEventRouteRoundTripProperty(t *testing.T) {
	f := func(pool uint64, ptr uint8) bool {
		p, q, valid := DecodeEventRoute(EncodeEventRoute(pool, ptr%(TurnPoolBits+1)))
		return valid && p == pool && q == ptr%(TurnPoolBits+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewConfigSpaceValidation(t *testing.T) {
	cases := []struct {
		typ   DeviceType
		ports int
	}{
		{DeviceSwitch, 1},
		{DeviceSwitch, MaxSwitchPorts + 1},
		{DeviceEndpoint, 0},
		{DeviceEndpoint, MaxEndpointPorts + 1},
		{DeviceType(0), 4},
	}
	for _, c := range cases {
		if _, err := newConfigSpace(c.typ, 1, c.ports, false); err == nil {
			t.Errorf("Init(%v, ports=%d) accepted", c.typ, c.ports)
		}
	}
}

func TestSetPortStateBounds(t *testing.T) {
	c := mustConfig(t, DeviceSwitch, 1, 4, false)
	if err := c.SetPortState(-1, PortInfo{}); err == nil {
		t.Error("negative port accepted")
	}
	if err := c.SetPortState(4, PortInfo{}); err == nil {
		t.Error("out-of-range port accepted")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := ParseGeneralInfo(nil); err == nil {
		t.Error("nil general info accepted")
	}
	if _, err := ParseGeneralInfo(make([]uint32, GeneralInfoBlocks)); err == nil {
		t.Error("zeroed general info accepted (invalid type)")
	}
	bad := []uint32{uint32(DeviceSwitch)<<24 | 99<<16 | 4, 0, 0, 0, 0, 0}
	if _, err := ParseGeneralInfo(bad); err == nil {
		t.Error("wrong capability version accepted")
	}
	if _, err := ParsePortInfo(nil); err == nil {
		t.Error("nil port info accepted")
	}
}

func TestConfigSpaceOffsetsDisjoint(t *testing.T) {
	// The writable regions are laid out without overlap after the port
	// blocks — event route, then owner — and end the capability.
	for _, ports := range []int{2, 4, 16} {
		er := EventRouteOffset(ports)
		ow := OwnerOffset(ports)
		if er != PortInfoOffset(ports) {
			t.Errorf("ports=%d: event route misplaced", ports)
		}
		if int(ow) != int(er)+int(EventRouteBlocks) {
			t.Errorf("ports=%d: owner region misplaced", ports)
		}
		if HeadBlocks(ports) != int(ow)+int(OwnerBlocks) {
			t.Errorf("ports=%d: capability size %d", ports, HeadBlocks(ports))
		}
	}
	sw, err := newConfigSpace(DeviceSwitch, 1, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Ports() != 16 {
		t.Errorf("Ports() = %d", sw.Ports())
	}
}
