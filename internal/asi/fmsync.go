package asi

import (
	"encoding/binary"
	"fmt"
)

// PIFMSync is the protocol interface used by collaborating fabric
// managers to ship topology reports to the primary — the inter-FM
// synchronization channel of the paper's future-work distributed
// discovery. The concrete PI code is a model choice within the
// management range.
const PIFMSync PI = 6

// FMSync is one chunk of a collaborator's topology report. Entries counts
// the database records carried in this chunk; each record costs
// FMSyncEntryBytes on the wire, so a large region is shipped as several
// chunks bounded by the fabric's maximum packet size. Final marks the
// last chunk of a report.
type FMSync struct {
	From    DSN
	Seq     uint16
	Entries uint16
	Final   bool
}

// FMSyncEntryBytes is the wire cost of one serialized database record
// (DSN, type/ports word, and link tuple, delta-compressed).
const FMSyncEntryBytes = 12

const fmSyncFixedSize = 13

// ProtocolInterface implements Payload.
func (p FMSync) ProtocolInterface() PI { return PIFMSync }

// WireSize implements Payload.
func (p FMSync) WireSize() int { return fmSyncFixedSize + int(p.Entries)*FMSyncEntryBytes }

// String summarizes the chunk.
func (p FMSync) String() string {
	return fmt.Sprintf("fmsync{from=%s seq=%d entries=%d final=%v}", p.From, p.Seq, p.Entries, p.Final)
}

// EncodeFMSync serializes the chunk header followed by an opaque body of
// Entries records (zero-filled here; the simulation transfers database
// content out of band and only the wire size matters to the fabric).
func EncodeFMSync(p FMSync) []byte {
	b := make([]byte, p.WireSize())
	binary.BigEndian.PutUint64(b[0:8], uint64(p.From))
	binary.BigEndian.PutUint16(b[8:10], p.Seq)
	binary.BigEndian.PutUint16(b[10:12], p.Entries)
	if p.Final {
		b[12] = 1
	}
	return b
}

// DecodeFMSync parses a chunk. It accepts exactly what EncodeFMSync
// writes: a Final byte of 0 or 1, then Entries zero-filled records and
// nothing after them.
func DecodeFMSync(b []byte) (FMSync, error) {
	var p FMSync
	if len(b) < fmSyncFixedSize {
		return p, fmt.Errorf("asi: FM-sync payload too short: %d bytes", len(b))
	}
	p.From = DSN(binary.BigEndian.Uint64(b[0:8]))
	p.Seq = binary.BigEndian.Uint16(b[8:10])
	p.Entries = binary.BigEndian.Uint16(b[10:12])
	switch b[12] {
	case 0:
	case 1:
		p.Final = true
	default:
		return p, fmt.Errorf("asi: FM-sync final flag %d, want 0 or 1", b[12])
	}
	if len(b) != p.WireSize() {
		return p, fmt.Errorf("asi: FM-sync payload is %d bytes, %d entries make %d", len(b), p.Entries, p.WireSize())
	}
	if !zeroed(b[fmSyncFixedSize:]) {
		return p, fmt.Errorf("asi: FM-sync records carry content; the model ships them zero-filled")
	}
	return p, nil
}

// zeroed reports whether every byte of b is zero: the content of the
// bodies this model sizes but does not fill.
func zeroed(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
