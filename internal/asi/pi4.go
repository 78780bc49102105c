package asi

import (
	"encoding/binary"
	"fmt"
)

// PI4Op is the operation code of a PI-4 (device management) packet.
type PI4Op uint8

const (
	// PI4ReadRequest asks a device to return Count 32-bit blocks of its
	// configuration space starting at Offset.
	PI4ReadRequest PI4Op = iota + 1
	// PI4ReadCompletionData carries the requested blocks back.
	PI4ReadCompletionData
	// PI4ReadCompletionError reports a failed read.
	PI4ReadCompletionError
	// PI4WriteRequest asks a device to store Data into its configuration
	// space at Offset (used for event-route programming).
	PI4WriteRequest
	// PI4WriteCompletion acknowledges a write.
	PI4WriteCompletion
	// PI4WriteCompletionError reports a failed write.
	PI4WriteCompletionError
	// PI4ClaimRequest atomically claims the device's discovery
	// ownership region for distributed discovery: Data carries
	// [generation, claimant]; the device grants the claim if the
	// generation is newer than the stored one, and always answers with
	// the stored [generation, owner] after the operation. This is an
	// extension beyond the base spec, used by the paper's future-work
	// collaborative discovery.
	PI4ClaimRequest
	// PI4ClaimCompletion answers a claim with the resulting owner.
	PI4ClaimCompletion
)

// String names the operation.
func (op PI4Op) String() string {
	switch op {
	case PI4ReadRequest:
		return "read-request"
	case PI4ReadCompletionData:
		return "read-completion-data"
	case PI4ReadCompletionError:
		return "read-completion-error"
	case PI4WriteRequest:
		return "write-request"
	case PI4WriteCompletion:
		return "write-completion"
	case PI4WriteCompletionError:
		return "write-completion-error"
	case PI4ClaimRequest:
		return "claim-request"
	case PI4ClaimCompletion:
		return "claim-completion"
	default:
		return fmt.Sprintf("PI4Op(%d)", uint8(op))
	}
}

// IsCompletion reports whether the op is any kind of response.
func (op PI4Op) IsCompletion() bool {
	switch op {
	case PI4ReadCompletionData, PI4ReadCompletionError,
		PI4WriteCompletion, PI4WriteCompletionError, PI4ClaimCompletion:
		return true
	}
	return false
}

// PI4 is the payload of a PI-4 packet. A request carries Offset/Count (and
// Data for writes); a completion echoes the Tag and carries Data for
// successful reads. The Tag lets the FM match completions to outstanding
// requests when many are in flight (the Parallel algorithm's pending
// table is keyed by it).
type PI4 struct {
	Op     PI4Op
	Tag    uint32
	Offset uint16 // in 32-bit blocks
	Count  uint8  // blocks to read; 1..MaxReadBlocks
	// ArrivalPort is stamped by the responding device on completions: the
	// local port index the request arrived on. It is how the FM learns
	// the far-end port of a link it has just crossed for the first time,
	// which it needs to extend turn-pool paths beyond the new device.
	ArrivalPort uint8
	Data        []uint32
}

// pi4FixedSize is the encoded size of the fixed portion of a PI-4 payload.
const pi4FixedSize = 10

// EncodePI4 serializes p. Encoded layout: op(1) tag(4) offset(2) count(1)
// arrivalPort(1) ndata(1) data(4*ndata).
func EncodePI4(p PI4) ([]byte, error) {
	if len(p.Data) > MaxReadBlocks {
		return nil, fmt.Errorf("asi: PI-4 payload of %d blocks exceeds limit %d", len(p.Data), MaxReadBlocks)
	}
	if p.Op == PI4ReadRequest && (p.Count == 0 || p.Count > MaxReadBlocks) {
		return nil, fmt.Errorf("asi: PI-4 read request count %d out of range 1..%d", p.Count, MaxReadBlocks)
	}
	b := make([]byte, pi4FixedSize+4*len(p.Data))
	b[0] = byte(p.Op)
	binary.BigEndian.PutUint32(b[1:5], p.Tag)
	binary.BigEndian.PutUint16(b[5:7], p.Offset)
	b[7] = p.Count
	b[8] = p.ArrivalPort
	b[9] = byte(len(p.Data))
	for i, w := range p.Data {
		binary.BigEndian.PutUint32(b[pi4FixedSize+4*i:], w)
	}
	return b, nil
}

// DecodePI4 parses a PI-4 payload. It accepts exactly what EncodePI4
// produces: the declared blocks and nothing after them, and a read
// request's count in range.
func DecodePI4(b []byte) (PI4, error) {
	var p PI4
	if len(b) < pi4FixedSize {
		return p, fmt.Errorf("asi: PI-4 payload too short: %d bytes", len(b))
	}
	p.Op = PI4Op(b[0])
	p.Tag = binary.BigEndian.Uint32(b[1:5])
	p.Offset = binary.BigEndian.Uint16(b[5:7])
	p.Count = b[7]
	p.ArrivalPort = b[8]
	n := int(b[9])
	if n > MaxReadBlocks {
		return p, fmt.Errorf("asi: PI-4 payload declares %d blocks, limit %d", n, MaxReadBlocks)
	}
	if len(b) != pi4FixedSize+4*n {
		return p, fmt.Errorf("asi: PI-4 payload is %d bytes, its %d blocks need %d", len(b), n, pi4FixedSize+4*n)
	}
	if p.Op == PI4ReadRequest && (p.Count == 0 || p.Count > MaxReadBlocks) {
		return p, fmt.Errorf("asi: PI-4 read request count %d out of range 1..%d", p.Count, MaxReadBlocks)
	}
	if n > 0 {
		p.Data = make([]uint32, n)
		for i := range p.Data {
			p.Data[i] = binary.BigEndian.Uint32(b[pi4FixedSize+4*i:])
		}
	}
	return p, nil
}

// WireSize returns the encoded payload size in bytes without allocating.
func (p *PI4) WireSize() int { return pi4FixedSize + 4*len(p.Data) }

// String summarizes the payload for traces.
func (p *PI4) String() string {
	return fmt.Sprintf("pi4{%s tag=%d off=%d count=%d data=%d blocks}",
		p.Op, p.Tag, p.Offset, p.Count, len(p.Data))
}
