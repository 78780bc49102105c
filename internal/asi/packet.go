package asi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Payload is the decoded body of an ASI packet. Concrete types: *PI4, PI5,
// Election, FMSync, Heartbeat and AppData. A PI-4 payload travels by
// pointer because it is rewritten in place: the device that services a
// request turns that very payload into the completion (see NewPI4Packet).
type Payload interface {
	// WireSize is the encoded payload length in bytes.
	WireSize() int
	// ProtocolInterface is the PI value that selects this payload type.
	ProtocolInterface() PI
}

// ProtocolInterface implements Payload.
func (p *PI4) ProtocolInterface() PI { return PI4DeviceManagement }

// ProtocolInterface implements Payload.
func (p PI5) ProtocolInterface() PI { return PI5EventReporting }

// PIElection is the protocol interface the model assigns to fabric-manager
// election traffic. The ASI spec runs election as part of fabric
// initialization over a reserved management PI; the exact code is not
// material to the paper.
const PIElection PI = 3

// Election is the payload of a fabric-manager election packet. Candidates
// flood announcements carrying their priority and DSN; the
// highest (priority, DSN) pair wins primary, the runner-up becomes
// secondary (paper section 2: "a distributed process is triggered in order
// to select primary and secondary fabric managers").
type Election struct {
	Priority  uint8
	Candidate DSN
	// TTL bounds flooding; decremented per switch hop.
	TTL uint8
	// Sequence numbers successive election rounds.
	Sequence uint32
}

const electionSize = 14

// ProtocolInterface implements Payload.
func (p Election) ProtocolInterface() PI { return PIElection }

// WireSize implements Payload.
func (p Election) WireSize() int { return electionSize }

// String summarizes the announcement.
func (p Election) String() string {
	return fmt.Sprintf("elect{prio=%d cand=%s ttl=%d seq=%d}", p.Priority, p.Candidate, p.TTL, p.Sequence)
}

// EncodeElection serializes p: prio(1) dsn(8) ttl(1) seq(4).
func EncodeElection(p Election) []byte {
	b := make([]byte, electionSize)
	b[0] = p.Priority
	binary.BigEndian.PutUint64(b[1:9], uint64(p.Candidate))
	b[9] = p.TTL
	binary.BigEndian.PutUint32(b[10:14], p.Sequence)
	return b
}

// DecodeElection parses an election payload.
func DecodeElection(b []byte) (Election, error) {
	var p Election
	if len(b) < electionSize {
		return p, fmt.Errorf("asi: election payload too short: %d bytes", len(b))
	}
	p.Priority = b[0]
	p.Candidate = DSN(binary.BigEndian.Uint64(b[1:9]))
	p.TTL = b[9]
	p.Sequence = binary.BigEndian.Uint32(b[10:14])
	return p, nil
}

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
	// field: Encode/Decode ignore it, Clone carries it, and devices copy
	// it from a PI-4 request into the completion so the return trip is
	// attributed to the same request span.
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

// packetTrailerSize is the link-layer CRC appended to every packet.
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

// Encode serializes the full packet, including the link-layer CRC-32 over
// header and payload.
func (p *Packet) Encode() ([]byte, error) {
	var body []byte
	var err error
	switch pl := p.Payload.(type) {
	case *PI4:
		body, err = EncodePI4(*pl)
		if err != nil {
			return nil, err
		}
	case PI5:
		body = EncodePI5(pl)
	case Election:
		body = EncodeElection(pl)
	case FMSync:
		body = EncodeFMSync(pl)
	case Heartbeat:
		body = EncodeHeartbeat(pl)
	case AppData:
		body = make([]byte, pl.Bytes)
	case nil:
	default:
		return nil, fmt.Errorf("asi: cannot encode payload type %T", p.Payload)
	}
	hdr := p.Header
	hdr.PI = p.Payload.ProtocolInterface()
	out := append(EncodeHeader(hdr), body...)
	crc := crc32.ChecksumIEEE(out)
	var tr [packetTrailerSize]byte
	binary.BigEndian.PutUint32(tr[:], crc)
	return append(out, tr[:]...), nil
}

// Decode parses a full packet produced by Encode, verifying both CRCs and
// dispatching the payload on the header's PI field.
func Decode(b []byte) (*Packet, error) {
	if len(b) < HeaderWireSize+packetTrailerSize {
		return nil, fmt.Errorf("asi: packet too short: %d bytes", len(b))
	}
	body := b[:len(b)-packetTrailerSize]
	want := binary.BigEndian.Uint32(b[len(b)-packetTrailerSize:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("asi: packet CRC mismatch: computed %#08x, trailer says %#08x", got, want)
	}
	hdr, err := DecodeHeader(body[:HeaderWireSize])
	if err != nil {
		return nil, err
	}
	pkt := &Packet{Header: hdr}
	rest := body[HeaderWireSize:]
	switch hdr.PI {
	case PI4DeviceManagement:
		pl, err := DecodePI4(rest)
		if err != nil {
			return nil, err
		}
		pkt.Payload = &pl
	case PI5EventReporting:
		pl, err := DecodePI5(rest)
		if err != nil {
			return nil, err
		}
		pkt.Payload = pl
	case PIElection:
		pl, err := DecodeElection(rest)
		if err != nil {
			return nil, err
		}
		pkt.Payload = pl
	case PIFMSync:
		pl, err := DecodeFMSync(rest)
		if err != nil {
			return nil, err
		}
		pkt.Payload = pl
	case PIHeartbeat:
		pl, err := DecodeHeartbeat(rest)
		if err != nil {
			return nil, err
		}
		pkt.Payload = pl
	case PIApplication:
		pkt.Payload = AppData{Bytes: len(rest)}
	default:
		return nil, fmt.Errorf("asi: unknown protocol interface %d", hdr.PI)
	}
	return pkt, nil
}

// Clone returns a deep copy of the packet; the fabric uses it when a
// flooded packet must leave through several ports with independent
// headers.
func (p *Packet) Clone() *Packet {
	pl, ok := p.Payload.(*PI4)
	if !ok {
		c := *p
		return &c
	}
	c, cpl := NewPI4Packet()
	c.Header, c.Span = p.Header, p.Span
	data := cpl.Data
	*cpl = *pl
	cpl.Data = append(data, pl.Data...)
	return c
}
