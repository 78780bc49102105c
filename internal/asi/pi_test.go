package asi

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPI4RoundTrip(t *testing.T) {
	cases := []PI4{
		{Op: PI4ReadRequest, Tag: 1, Offset: 0, Count: 6},
		{Op: PI4ReadCompletionData, Tag: 1, Offset: 0, Count: 6, ArrivalPort: 11, Data: []uint32{1, 2, 3, 4, 5, 6}},
		{Op: PI4ReadCompletionError, Tag: 9, Offset: 100, Count: 2, ArrivalPort: 3},
		{Op: PI4WriteRequest, Tag: 3, Offset: 38, Data: []uint32{0xdead, 0xbeef, 0x80000010}},
		{Op: PI4WriteCompletion, Tag: 3},
	}
	for _, c := range cases {
		b, err := EncodePI4(c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if len(b) != c.WireSize() {
			t.Errorf("%v: encoded %d bytes, WireSize says %d", c, len(b), c.WireSize())
		}
		got, err := DecodePI4(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", c, err)
		}
		if got.Op != c.Op || got.Tag != c.Tag || got.Offset != c.Offset ||
			got.Count != c.Count || got.ArrivalPort != c.ArrivalPort {
			t.Errorf("round trip changed fields: got %+v want %+v", got, c)
		}
		if len(got.Data) != len(c.Data) {
			t.Fatalf("round trip changed data length: got %d want %d", len(got.Data), len(c.Data))
		}
		for i := range c.Data {
			if got.Data[i] != c.Data[i] {
				t.Errorf("data[%d] = %#x, want %#x", i, got.Data[i], c.Data[i])
			}
		}
	}
}

func TestPI4RoundTripProperty(t *testing.T) {
	f := func(op uint8, tag uint32, offset uint16, count uint8, arrival uint8, data []uint32) bool {
		if len(data) > MaxReadBlocks {
			data = data[:MaxReadBlocks]
		}
		p := PI4{
			Op:          PI4Op(op%6) + 1,
			Tag:         tag,
			Offset:      offset,
			Count:       count%MaxReadBlocks + 1,
			ArrivalPort: arrival,
			Data:        data,
		}
		b, err := EncodePI4(p)
		if err != nil {
			return false
		}
		got, err := DecodePI4(b)
		if err != nil || got.Op != p.Op || got.Tag != p.Tag || got.Offset != p.Offset ||
			got.Count != p.Count || got.ArrivalPort != p.ArrivalPort || len(got.Data) != len(p.Data) {
			return false
		}
		for i := range p.Data {
			if got.Data[i] != p.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPI4EncodeRejectsInvalid(t *testing.T) {
	if _, err := EncodePI4(PI4{Op: PI4ReadCompletionData, Data: make([]uint32, MaxReadBlocks+1)}); err == nil {
		t.Error("oversize data accepted")
	}
	if _, err := EncodePI4(PI4{Op: PI4ReadRequest, Count: 0}); err == nil {
		t.Error("zero-count read request accepted")
	}
	if _, err := EncodePI4(PI4{Op: PI4ReadRequest, Count: MaxReadBlocks + 1}); err == nil {
		t.Error("oversize read request accepted")
	}
}

func TestPI4DecodeRejectsMalformed(t *testing.T) {
	if _, err := DecodePI4(make([]byte, pi4FixedSize-1)); err == nil {
		t.Error("short payload accepted")
	}
	b, _ := EncodePI4(PI4{Op: PI4ReadRequest, Count: 1})
	b[9] = MaxReadBlocks + 1
	if _, err := DecodePI4(b); err == nil {
		t.Error("over-declared block count accepted")
	}
	b[9] = 4 // declares 4 blocks but buffer has none
	if _, err := DecodePI4(b); err == nil {
		t.Error("truncated data accepted")
	}
}

func TestPI4OpClassification(t *testing.T) {
	if PI4ReadRequest.IsCompletion() || PI4WriteRequest.IsCompletion() {
		t.Error("request classified as completion")
	}
	for _, op := range []PI4Op{PI4ReadCompletionData, PI4ReadCompletionError, PI4WriteCompletion, PI4WriteCompletionError} {
		if !op.IsCompletion() {
			t.Errorf("%v not classified as completion", op)
		}
	}
}

func TestPI5RoundTrip(t *testing.T) {
	p := PI5{Code: PI5PortDown, Port: 13, Reporter: 0xfeedface, Sequence: 77}
	got, err := DecodePI5(EncodePI5(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip changed payload: got %+v want %+v", got, p)
	}
	if p.WireSize() != pi5Size {
		t.Errorf("WireSize = %d, want %d", p.WireSize(), pi5Size)
	}
}

func TestPI5RoundTripProperty(t *testing.T) {
	f := func(code uint8, port uint8, dsn uint64, seq uint32) bool {
		p := PI5{Code: PI5EventCode(code%2) + 1, Port: port, Reporter: DSN(dsn), Sequence: seq}
		got, err := DecodePI5(EncodePI5(p))
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPI5DecodeShort(t *testing.T) {
	if _, err := DecodePI5(make([]byte, pi5Size-1)); err == nil {
		t.Error("short PI-5 payload accepted")
	}
}

func TestStringerCoverage(t *testing.T) {
	for _, s := range []string{
		DeviceSwitch.String(), DeviceEndpoint.String(), DeviceType(99).String(),
		PI4ReadRequest.String(), PI4Op(99).String(),
		PI5PortUp.String(), PI5PortDown.String(), PI5EventCode(9).String(),
		(&PI4{}).String(), PI5{}.String(), DSN(1).String(),
	} {
		if s == "" {
			t.Error("empty Stringer output")
		}
	}
	if !strings.Contains((&PI4{Op: PI4ReadRequest}).String(), "read-request") {
		t.Error("PI4 String misses op name")
	}
}
