package asi

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
	"testing/quick"
)

func TestPacketEncodeDecodePI4(t *testing.T) {
	p := &Packet{
		Header: RouteHeader{TurnPool: 0xbeef, TurnPointer: 12, TC: TCManagement},
		Payload: &PI4{
			Op: PI4ReadCompletionData, Tag: 4, Offset: 6, Count: 2,
			Data: []uint32{10, 20},
		},
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != p.WireSize() {
		t.Errorf("encoded %d bytes, WireSize says %d", len(b), p.WireSize())
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.TurnPool != p.Header.TurnPool || got.Header.PI != PI4DeviceManagement {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	pl, ok := got.Payload.(*PI4)
	if !ok {
		t.Fatalf("payload type %T", got.Payload)
	}
	if pl.Tag != 4 || len(pl.Data) != 2 || pl.Data[1] != 20 {
		t.Errorf("payload mismatch: %+v", pl)
	}
}

func TestPacketEncodeDecodeAllPayloadTypes(t *testing.T) {
	payloads := []Payload{
		&PI4{Op: PI4ReadRequest, Tag: 1, Count: 6},
		PI5{Code: PI5PortUp, Port: 3, Reporter: 99, Sequence: 1},
		AppData{Bytes: 64},
	}
	for _, pl := range payloads {
		p := &Packet{Header: RouteHeader{TurnPointer: 8}, Payload: pl}
		b, err := p.Encode()
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%T: decode: %v", pl, err)
		}
		if got.Header.PI != pl.ProtocolInterface() {
			t.Errorf("%T: PI %d, want %d", pl, got.Header.PI, pl.ProtocolInterface())
		}
	}
}

func TestPacketCRCDetectsCorruption(t *testing.T) {
	p := &Packet{Header: RouteHeader{}, Payload: PI5{Code: PI5PortUp, Reporter: 1}}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b[HeaderWireSize] ^= 0xff // flip payload byte
	if _, err := Decode(b); err == nil {
		t.Error("corrupted payload accepted")
	}
}

func TestPacketDecodeRejectsUnknownPI(t *testing.T) {
	// 3 was the model's election PI; no payload is defined for it now.
	for _, pi := range []PI{3, 99} {
		p := &Packet{Header: RouteHeader{}, Payload: AppData{Bytes: 4}}
		b, _ := p.Encode()
		// Forge the PI and repair both CRCs, so only the PI is wrong.
		hdr, _ := DecodeHeader(b[:HeaderWireSize])
		hdr.PI = pi
		copy(b, EncodeHeader(hdr))
		body := b[:len(b)-packetTrailerSize]
		binary.BigEndian.PutUint32(b[len(body):], crc32.ChecksumIEEE(body))
		if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "unknown protocol interface") {
			t.Errorf("PI %d: Decode = %v, want the unknown-PI error", pi, err)
		}
	}
}

func TestPacketDecodeShort(t *testing.T) {
	if _, err := Decode(make([]byte, 3)); err == nil {
		t.Error("short packet accepted")
	}
}

func TestPacketWireSizesMatchPaperScale(t *testing.T) {
	// A general-information read request must be a few tens of bytes and
	// its completion with six blocks somewhat larger; byte accounting in
	// the experiments relies on these magnitudes.
	req := &Packet{Payload: &PI4{Op: PI4ReadRequest, Count: GeneralInfoBlocks}}
	resp := &Packet{Payload: &PI4{Op: PI4ReadCompletionData, Data: make([]uint32, GeneralInfoBlocks)}}
	if req.WireSize() <= HeaderWireSize || req.WireSize() > 64 {
		t.Errorf("request wire size %d implausible", req.WireSize())
	}
	if resp.WireSize() <= req.WireSize() {
		t.Errorf("completion (%dB) not larger than request (%dB)", resp.WireSize(), req.WireSize())
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(pool uint64, ptr uint8, tag uint32, offset uint16, nData uint8) bool {
		n := int(nData % (MaxReadBlocks + 1))
		data := make([]uint32, n)
		for i := range data {
			data[i] = uint32(i) * 7
		}
		p := &Packet{
			Header: RouteHeader{TurnPool: pool, TurnPointer: ptr % (TurnPoolBits + 1), TC: TCManagement},
			Payload: &PI4{
				Op: PI4ReadCompletionData, Tag: tag, Offset: offset,
				Count: uint8(n)%MaxReadBlocks + 1, Data: data,
			},
		}
		b, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		gp := got.Payload.(*PI4)
		return got.Header.TurnPool == p.Header.TurnPool && gp.Tag == tag && len(gp.Data) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
