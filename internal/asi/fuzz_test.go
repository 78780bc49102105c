package asi

import (
	"bytes"
	"reflect"
	"testing"
)

// The fuzz wall on the wire decoders. Each target feeds arbitrary bytes to
// one decoder through a slice whose capacity ends at its length, so any
// read past the input panics, and checks that what the decoder accepts is
// exactly what its encoder writes: decode then encode gives the input
// back byte for byte. Seeds are the golden vectors of golden_test.go.

// goldenPackets are packets of every payload kind, the golden full packet
// first.
func goldenPackets() []*Packet {
	hdr := RouteHeader{TurnPool: 0x0B, TurnPointer: 4, TC: TCManagement}
	return []*Packet{
		{Header: hdr, Payload: PI5{Code: PI5PortUp, Port: 1, Reporter: 0x42, Sequence: 1}},
		{Header: hdr, Payload: &PI4{Op: PI4ReadRequest, Tag: 0x01020304, Offset: 6, Count: 2}},
		{Header: hdr, Payload: &PI4{Op: PI4ReadCompletionData, Tag: 7, Count: 2, ArrivalPort: 3, Data: []uint32{0xdead, 0xbeef}}},
		{Header: hdr, Payload: FMSync{From: 0x42, Seq: 2, Entries: 1, Final: true}},
		{Header: hdr, Payload: Heartbeat{From: 0x42, Seq: 9}},
		{Header: RouteHeader{Multicast: true, MGID: 0x0102}, Payload: AppData{Bytes: 4}},
		{Header: hdr},
	}
}

// exact returns b with its capacity cut to its length.
func exact(b []byte) []byte { return b[:len(b):len(b)] }

func FuzzDecodePacket(f *testing.F) {
	for _, p := range goldenPackets() {
		b, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pkt, err := Decode(exact(b))
		if err != nil {
			return
		}
		again, err := pkt.Encode()
		if err != nil {
			t.Fatalf("Decode accepted %x, Encode refuses it: %v", b, err)
		}
		switch pkt.Payload.(type) {
		case *PI4, PI5:
			if !bytes.Equal(again, b) {
				t.Fatalf("decode then encode changed the packet:\n in  %x\n out %x", b, again)
			}
		default:
			// FM-sync, heartbeat and application bodies model only their
			// size: the encoder zero-fills what the decoder skips.
			if back, err := Decode(again); err != nil || !reflect.DeepEqual(back, pkt) {
				t.Fatalf("%x decodes to %+v, its encoding to %+v (%v)", b, pkt, back, err)
			}
		}
	})
}

func FuzzDecodePI4(f *testing.F) {
	for _, p := range goldenPackets() {
		if pl, ok := p.Payload.(*PI4); ok {
			b, err := EncodePI4(*pl)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePI4(exact(b))
		if err != nil {
			return
		}
		again, err := EncodePI4(p)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("decode then encode changed the payload:\n in  %x\n out %x (%v)", b, again, err)
		}
	})
}

func FuzzDecodePI5(f *testing.F) {
	f.Add(EncodePI5(PI5{Code: PI5PortDown, Port: 3, Reporter: 0xA5100001, Sequence: 7}))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePI5(exact(b))
		if err != nil {
			return
		}
		if again := EncodePI5(p); !bytes.Equal(again, b) {
			t.Fatalf("decode then encode changed the payload:\n in  %x\n out %x", b, again)
		}
	})
}

func FuzzDecodeHeader(f *testing.F) {
	for _, p := range goldenPackets() {
		f.Add(EncodeHeader(p.Header))
	}
	f.Add(EncodeHeader(RouteHeader{TurnPool: 0x0123456789abcdef, TurnPointer: 37, Dir: true, OO: true, CreditsRequired: 3}))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeHeader(exact(b))
		if err != nil {
			return
		}
		if again := EncodeHeader(h); !bytes.Equal(again, b[:HeaderWireSize]) {
			t.Fatalf("decode then encode changed the header:\n in  %x\n out %x", b[:HeaderWireSize], again)
		}
	})
}

// A packet with no payload encodes as its header alone instead of
// panicking on the nil payload's protocol interface.
func TestPacketEncodeNilPayload(t *testing.T) {
	p := &Packet{Header: RouteHeader{TurnPool: 0x0B, TurnPointer: 4, PI: PI5EventReporting}}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != p.WireSize() {
		t.Errorf("encoded %d bytes, WireSize says %d", len(b), p.WireSize())
	}
	if h, err := DecodeHeader(b[:HeaderWireSize]); err != nil || h != p.Header {
		t.Errorf("header decodes to %+v (%v), want %+v", h, err, p.Header)
	}
}

// The PI-4 and PI-5 decoders refuse bytes after the payload, which no
// encoder writes.
func TestPIDecodeRejectsTrailingBytes(t *testing.T) {
	pi4, err := EncodePI4(PI4{Op: PI4ReadCompletionData, Tag: 7, Count: 1, Data: []uint32{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePI4(append(pi4, 0)); err == nil {
		t.Error("PI-4 payload with a trailing byte accepted")
	}
	pi5 := EncodePI5(PI5{Code: PI5PortUp, Port: 1, Reporter: 2, Sequence: 3})
	if _, err := DecodePI5(append(pi5, 0)); err == nil {
		t.Error("PI-5 payload with a trailing byte accepted")
	}
}
