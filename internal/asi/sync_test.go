package asi

import (
	"testing"
	"testing/quick"
)

func TestFMSyncRoundTrip(t *testing.T) {
	p := FMSync{From: 0xA5, Seq: 3, Entries: 150, Final: true}
	got, err := DecodeFMSync(EncodeFMSync(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip: %+v vs %+v", got, p)
	}
	if p.WireSize() != fmSyncFixedSize+150*FMSyncEntryBytes {
		t.Errorf("WireSize = %d", p.WireSize())
	}
	if p.ProtocolInterface() != PIFMSync || p.String() == "" {
		t.Error("metadata broken")
	}
}

func TestFMSyncRoundTripProperty(t *testing.T) {
	f := func(from uint64, seq uint16, entries uint16, final bool) bool {
		p := FMSync{From: DSN(from), Seq: seq, Entries: entries % 200, Final: final}
		got, err := DecodeFMSync(EncodeFMSync(p))
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFMSyncDecodeErrors(t *testing.T) {
	if _, err := DecodeFMSync(make([]byte, fmSyncFixedSize-1)); err == nil {
		t.Error("short payload accepted")
	}
	// Declared entries beyond the buffer.
	b := EncodeFMSync(FMSync{Entries: 10})
	if _, err := DecodeFMSync(b[:fmSyncFixedSize]); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	p := Heartbeat{From: 0xBEEF, Seq: 42}
	got, err := DecodeHeartbeat(EncodeHeartbeat(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip: %+v vs %+v", got, p)
	}
	if p.ProtocolInterface() != PIHeartbeat || p.WireSize() != heartbeatSize || p.String() == "" {
		t.Error("metadata broken")
	}
	if _, err := DecodeHeartbeat(nil); err == nil {
		t.Error("nil payload accepted")
	}
}

func TestFMSyncAndHeartbeatThroughPacket(t *testing.T) {
	for _, pl := range []Payload{
		FMSync{From: 7, Seq: 1, Entries: 5, Final: true},
		Heartbeat{From: 9, Seq: 2},
	} {
		pkt := &Packet{Header: RouteHeader{TurnPointer: 4, TurnPool: 1, TC: TCManagement}, Payload: pl}
		b, err := pkt.Encode()
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		if len(b) != pkt.WireSize() {
			t.Errorf("%T: wire size mismatch", pl)
		}
		dec, err := Decode(b)
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		if dec.Payload.ProtocolInterface() != pl.ProtocolInterface() {
			t.Errorf("%T: PI mismatch", pl)
		}
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

func TestPI4OpStringsAll(t *testing.T) {
	ops := []PI4Op{
		PI4ReadRequest, PI4ReadCompletionData, PI4ReadCompletionError,
		PI4WriteRequest, PI4WriteCompletion, PI4WriteCompletionError,
		PI4ClaimRequest, PI4ClaimCompletion,
	}
	for _, op := range ops {
		s := op.String()
		if s == "" || s[0:2] == "PI" {
			t.Errorf("op %d renders as %q (expected a named op)", op, s)
		}
	}
}
