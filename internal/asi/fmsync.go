package asi

import "fmt"

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

// fmSyncFixedSize is the chunk header on the wire: from(8) seq(2)
// entries(2) final(1). The records after it are sized, not carried: the
// simulation transfers database content out of band.
const fmSyncFixedSize = 13

// ProtocolInterface implements Payload.
func (p FMSync) ProtocolInterface() PI { return PIFMSync }

// WireSize implements Payload.
func (p FMSync) WireSize() int { return fmSyncFixedSize + int(p.Entries)*FMSyncEntryBytes }

// String summarizes the chunk.
func (p FMSync) String() string {
	return fmt.Sprintf("fmsync{from=%s seq=%d entries=%d final=%v}", p.From, p.Seq, p.Entries, p.Final)
}
