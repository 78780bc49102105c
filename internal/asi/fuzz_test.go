package asi

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
		{Header: hdr, Payload: FMSync{From: 0x42, Seq: 1}},
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
		f.Add(b[:len(b)-packetTrailerSize])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// As given, and as a header and payload the link CRC is appended
		// to: mutated bytes almost never keep a valid CRC, and only the
		// second form reaches the payload decoders.
		for _, in := range [][]byte{b, appendCRC(bytes.Clone(b))} {
			pkt, err := Decode(exact(in))
			if err != nil {
				continue
			}
			again, err := pkt.Encode()
			if err != nil {
				t.Fatalf("Decode accepted %x, Encode refuses it: %v", in, err)
			}
			if !bytes.Equal(again, in) {
				t.Fatalf("decode then encode changed the %T packet:\n in  %x\n out %x", pkt.Payload, in, again)
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

// The FM-sync and heartbeat decoders accept exactly what their encoders
// write: no byte after the payload, an FM-sync Final byte of 0 or 1 and
// records zero-filled, as is an application body inside a packet.
func TestSizedDecodersRejectWhatNoEncoderWrites(t *testing.T) {
	sync := EncodeFMSync(FMSync{From: 0x42, Seq: 2, Entries: 1, Final: true})
	if _, err := DecodeFMSync(append(bytes.Clone(sync), 0)); err == nil {
		t.Error("FM-sync payload with a trailing byte accepted")
	}
	for _, final := range []byte{2, 0x80, 0xff} {
		b := bytes.Clone(sync)
		b[12] = final
		if _, err := DecodeFMSync(b); err == nil {
			t.Errorf("FM-sync final byte %d accepted", final)
		}
	}
	b := bytes.Clone(sync)
	b[len(b)-1] = 1
	if _, err := DecodeFMSync(b); err == nil {
		t.Error("FM-sync record with content accepted")
	}
	beat := EncodeHeartbeat(Heartbeat{From: 0x42, Seq: 9})
	if _, err := DecodeHeartbeat(append(beat, 0)); err == nil {
		t.Error("heartbeat payload with a trailing byte accepted")
	}
	app, err := (&Packet{Payload: AppData{Bytes: 4}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Clone(app[:len(app)-packetTrailerSize])
	body[HeaderWireSize] = 1
	if _, err := Decode(appendCRC(body)); err == nil {
		t.Error("application body with content accepted")
	}
}

// appendCRC appends the link CRC Encode would write for a packet body.
func appendCRC(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}
