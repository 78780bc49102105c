package asi

import (
	"testing"
	"unsafe"
)

// TestPacketWireSizesMatchPaperScale pins the size on the wire of every
// packet the model sends (header, payload and link CRC) and the PI each
// payload reports. These sizes set every serialization delay, and the
// byte accounting in the experiments relies on them.
func TestPacketWireSizesMatchPaperScale(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload Payload
		pi      PI
		want    int
	}{
		{"general-information read request", &PI4{Op: PI4ReadRequest, Count: GeneralInfoBlocks}, PI4DeviceManagement, 30},
		{"general-information completion", &PI4{Op: PI4ReadCompletionData, Data: make([]uint32, GeneralInfoBlocks)}, PI4DeviceManagement, 54},
		{"port-information read request", &PI4{Op: PI4ReadRequest, Count: PortInfoBlocks}, PI4DeviceManagement, 30},
		{"port-information completion", &PI4{Op: PI4ReadCompletionData, Data: make([]uint32, PortInfoBlocks)}, PI4DeviceManagement, 38},
		{"event-route write", &PI4{Op: PI4WriteRequest, Data: EncodeEventRoute(0x0B, 4)}, PI4DeviceManagement, 42},
		{"event-route write completion", &PI4{Op: PI4WriteCompletion}, PI4DeviceManagement, 30},
		{"PI-5 event", PI5{Code: PI5PortDown, Port: 3, Reporter: 0x42, Sequence: 7}, PI5EventReporting, 34},
		{"heartbeat", Heartbeat{From: 0x42, Seq: 9}, PIHeartbeat, 32},
		{"FM-sync, 3 entries", FMSync{From: 0x42, Seq: 2, Entries: 3, Final: true}, PIFMSync, 69},
		{"64 bytes of application data", AppData{Bytes: 64}, PIApplication, 84},
	} {
		p := &Packet{Header: RouteHeader{TurnPool: 0x0B, TurnPointer: 4, TC: TCManagement}, Payload: tc.payload}
		if got := p.WireSize(); got != tc.want {
			t.Errorf("%s: WireSize = %d B, want %d", tc.name, got, tc.want)
		}
		if got := tc.payload.ProtocolInterface(); got != tc.pi {
			t.Errorf("%s: ProtocolInterface = %d, want %d", tc.name, got, tc.pi)
		}
	}
}

// TestRecordSizes pins the packet records the fabric moves: a PI-4 round
// trip is one pooled pi4Packet, which fits Go's 112 B size class.
func TestRecordSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"RouteHeader", unsafe.Sizeof(RouteHeader{}), 16},
		{"Packet", unsafe.Sizeof(Packet{}), 40},
		{"pi4Packet", unsafe.Sizeof(pi4Packet{}), 112},
	} {
		if tc.got != tc.want {
			t.Errorf("sizeof(%s) = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}
