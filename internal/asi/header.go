package asi

import "fmt"

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
// without the device knowing any topology. The model carries only the
// fields a device acts on; the spec's other header fields (ordered-only,
// type-specific, credits required, multicast group) and the header CRC
// exist only as bytes counted in HeaderWireSize.
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
	// PI identifies the encapsulated protocol.
	PI PI
	// TC is the traffic class stamped by the source endpoint.
	TC TrafficClass
}

// HeaderWireSize is a route header's size on the wire in bytes. The spec
// uses two 32-bit words plus header CRC; widening the turn pool to 64 bits
// grows the header to 12 bytes of fields plus a 2-byte header CRC and 2
// bytes of framing.
const HeaderWireSize = 16

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
