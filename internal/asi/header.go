package asi

import (
	"encoding/binary"
	"fmt"
)

// TurnPoolBits is the width of the turn pool in this model. The ASI
// specification defines a 31-bit pool, which limits a path to 7 hops of
// 16-port switches; the paper's 8x8 mesh needs up to 14 hops from a corner
// fabric manager, so (like the authors' OPNET model must have) we widen the
// pool. 64 bits admit 16 hops of 16-port switches, enough for every
// topology in Table 1. The substitution is behaviour-preserving: no
// algorithm in the paper depends on the pool width, only on per-hop turn
// consumption.
const TurnPoolBits = 64

// RouteHeader is the ASI packet routing header (paper Fig. 1). Unicast ASI
// packets are source routed: the sending endpoint fills TurnPool with one
// turn value per switch on the path, and each switch consumes bits at
// TurnPointer to select its output port. Dir (the D bit) selects forward or
// backward interpretation, which lets a device answer a request by echoing
// the header with D flipped — the response retraces the request path
// without the device knowing any topology.
type RouteHeader struct {
	// TurnPool holds the packed turn values. The first switch on the
	// forward path consumes the most significant used bits.
	TurnPool uint64
	// TurnPointer is the bit index one past the next turn to consume in
	// the forward direction (i.e. the number of unconsumed pool bits).
	// In the backward direction it is the number of already-reconsumed
	// bits, so it grows from 0 back toward the original fill.
	TurnPointer uint8
	// Dir is the D bit: false = forward, true = backward.
	Dir bool
	// Multicast marks a multicast packet and MGID its group: in ASI,
	// switches replicate it along the group's forwarding-table ports
	// instead of consuming turns. The model encodes both but its switches
	// have no forwarding table, so they drop the packet as unroutable
	// (route.SwitchRoute).
	Multicast bool
	MGID      uint16
	// PI identifies the encapsulated protocol.
	PI PI
	// TC is the traffic class stamped by the source endpoint.
	TC TrafficClass
	// OO (ordered-only) and TS (type-specific) mark bypassable packets
	// on BVCs. Management packets leave them clear.
	OO bool
	TS bool
	// CreditsRequired is the number of flow-control credit units the
	// packet consumes at each hop.
	CreditsRequired uint8
}

// HeaderWireSize is the encoded size of a route header in bytes. The spec
// uses two 32-bit words plus header CRC; widening the turn pool to 64 bits
// grows the header to 12 bytes of fields plus a 2-byte header CRC and 2
// bytes of framing.
const HeaderWireSize = 16

// flag bit positions within the packed flags byte.
const (
	flagDir = 1 << 0
	flagOO  = 1 << 1
	flagTS  = 1 << 2
	flagMC  = 1 << 3
)

// EncodeHeader packs h into a fresh HeaderWireSize-byte slice, including
// the header CRC over the preceding bytes.
func EncodeHeader(h RouteHeader) []byte {
	b := make([]byte, HeaderWireSize)
	if h.Multicast {
		// Multicast reuses the turn-pool bytes for the group id; the
		// pool and pointer are meaningless for replicated forwarding.
		binary.BigEndian.PutUint16(b[6:8], h.MGID)
	} else {
		binary.BigEndian.PutUint64(b[0:8], h.TurnPool)
		b[8] = h.TurnPointer
	}
	var flags byte
	if h.Dir {
		flags |= flagDir
	}
	if h.Multicast {
		flags |= flagMC
	}
	if h.OO {
		flags |= flagOO
	}
	if h.TS {
		flags |= flagTS
	}
	b[9] = flags
	b[10] = byte(h.PI)
	b[11] = byte(h.TC&MaxTrafficClass) | h.CreditsRequired<<3
	// b[12:14] reserved framing (sequence/ack in the real link layer).
	binary.BigEndian.PutUint16(b[14:16], crc16(b[:14]))
	return b
}

// DecodeHeader unpacks a route header, verifying length and header CRC.
// It accepts exactly what EncodeHeader produces: reserved flag bits and
// framing bytes, and a multicast header's unused pool bytes, are zero.
func DecodeHeader(b []byte) (RouteHeader, error) {
	var h RouteHeader
	if len(b) < HeaderWireSize {
		return h, fmt.Errorf("asi: header too short: %d bytes", len(b))
	}
	if got, want := crc16(b[:14]), binary.BigEndian.Uint16(b[14:16]); got != want {
		return h, fmt.Errorf("asi: header CRC mismatch: computed %#04x, header says %#04x", got, want)
	}
	flags := b[9]
	h.Multicast = flags&flagMC != 0
	reserved := flags&^(flagDir|flagOO|flagTS|flagMC) != 0 || b[12] != 0 || b[13] != 0
	if h.Multicast {
		h.MGID = binary.BigEndian.Uint16(b[6:8])
		reserved = reserved || binary.BigEndian.Uint64(b[0:8])>>16 != 0 || b[8] != 0
	} else {
		h.TurnPool = binary.BigEndian.Uint64(b[0:8])
		h.TurnPointer = b[8]
	}
	h.Dir = flags&flagDir != 0
	h.OO = flags&flagOO != 0
	h.TS = flags&flagTS != 0
	h.PI = PI(b[10])
	h.TC = TrafficClass(b[11]) & MaxTrafficClass
	h.CreditsRequired = b[11] >> 3
	if h.TurnPointer > TurnPoolBits {
		return h, fmt.Errorf("asi: turn pointer %d exceeds pool width %d", h.TurnPointer, TurnPoolBits)
	}
	if reserved {
		return h, fmt.Errorf("asi: header sets reserved bits")
	}
	return h, nil
}

// crc16 computes CRC-16/CCITT-FALSE, the polynomial family ASI and PCI
// Express use for link-layer CRCs.
func crc16(data []byte) uint16 {
	crc := uint16(0xffff)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Reverse returns the header of a response that retraces this packet's
// path: the D bit flips and everything else (including the pool and
// pointer, which the fabric has been mutating in flight) carries over. Call
// it on the header as received at the destination.
func (h RouteHeader) Reverse() RouteHeader {
	r := h
	r.Dir = !h.Dir
	return r
}

// String summarizes the header for traces.
func (h RouteHeader) String() string {
	dir := "fwd"
	if h.Dir {
		dir = "bwd"
	}
	return fmt.Sprintf("hdr{pool=%#016x ptr=%d %s pi=%d tc=%d}",
		h.TurnPool, h.TurnPointer, dir, h.PI, h.TC)
}
