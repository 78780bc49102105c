package asi

import "fmt"

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

// pi4FixedSize is the wire size of the fixed portion of a PI-4 payload:
// op(1) tag(4) offset(2) count(1) arrivalPort(1) ndata(1), followed by
// 4 bytes per data block.
const pi4FixedSize = 10

// WireSize returns the payload size on the wire in bytes.
func (p *PI4) WireSize() int { return pi4FixedSize + 4*len(p.Data) }

// String summarizes the payload for traces.
func (p *PI4) String() string {
	return fmt.Sprintf("pi4{%s tag=%d off=%d count=%d data=%d blocks}",
		p.Op, p.Tag, p.Offset, p.Count, len(p.Data))
}
