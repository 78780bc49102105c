package asi

// Payload is the body of an ASI packet. Concrete types: *PI4, PI5,
// FMSync, Heartbeat and AppData. A PI-4 payload travels by
// pointer because it is rewritten in place: the device that services a
// request turns that very payload into the completion (see NewPI4Packet).
type Payload interface {
	// WireSize is the payload's length on the wire in bytes.
	WireSize() int
	// ProtocolInterface is the PI value that selects this payload type.
	ProtocolInterface() PI
}

// ProtocolInterface implements Payload.
func (p *PI4) ProtocolInterface() PI { return PI4DeviceManagement }

// ProtocolInterface implements Payload.
func (p PI5) ProtocolInterface() PI { return PI5EventReporting }

// AppData models encapsulated application traffic of a given size; only
// its length matters to the fabric.
type AppData struct {
	Bytes int
}

// ProtocolInterface implements Payload.
func (p AppData) ProtocolInterface() PI { return PIApplication }

// WireSize implements Payload.
func (p AppData) WireSize() int { return p.Bytes }

// Packet is a complete ASI packet: routing header plus typed payload. The
// fabric model moves *Packet values between devices and mutates only the
// header's turn pointer in flight, exactly as switch hardware would.
type Packet struct {
	Header  RouteHeader
	Payload Payload
	// Span is the causal-trace request ID riding with the packet (zero
	// when tracing is off). It is simulator metadata, not an on-the-wire
	// field: WireSize does not count it, and devices copy it from a PI-4
	// request into the completion so the return trip is attributed to the
	// same request span.
	Span uint64
}

// pi4Packet holds a PI-4 packet, its payload and the largest block array
// a payload can carry in one allocation.
type pi4Packet struct {
	pkt  Packet
	pi4  PI4
	data [MaxReadBlocks]uint32
}

// NewPI4Packet returns a packet whose payload is an empty PI-4 body
// stored beside it. A PI-4 round trip reuses the one record end to end:
// the requester fills header and payload, the responding device reverses
// the header and overwrites the payload with the completion, and the
// requester may hand the consumed completion out again as its next
// request. The payload's Data starts empty with room for MaxReadBlocks
// blocks; users that refill it by appending to Data[:0] never allocate.
func NewPI4Packet() (*Packet, *PI4) {
	r := &pi4Packet{}
	r.pi4.Data = r.data[:0]
	r.pkt.Payload = &r.pi4
	return &r.pkt, &r.pi4
}

// packetTrailerSize is the link-layer CRC-32 that ends every packet on
// the wire.
const packetTrailerSize = 4

// WireSize is the total on-the-wire size of the packet in bytes: header,
// payload, and link CRC. Byte counters in the management-overhead
// measurements use this.
func (p *Packet) WireSize() int {
	n := HeaderWireSize + packetTrailerSize
	if p.Payload != nil {
		n += p.Payload.WireSize()
	}
	return n
}
