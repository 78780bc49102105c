// Package core implements ASI fabric management: the topology discovery
// process in the three variants the paper compares (Serial Packet, Serial
// Device, Parallel), PI-5 driven change assimilation, failover to a
// secondary manager, and the paper's future-work extensions (discovery
// distributed over collaborating fabric managers, and partial rediscovery
// of only the region affected by a change).
//
// The fabric manager is a software entity running on an ASI endpoint
// (paper section 1). It learns the fabric exclusively through PI-4 reads
// of device configuration spaces and reacts to PI-5 event reports; all of
// that traffic crosses the simulated fabric in internal/fabric.
package core

import "fmt"

// Kind selects a discovery algorithm implementation.
type Kind int

const (
	// SerialPacket is the ASI-SIG serialized proposal: a single PI-4
	// request in flight at any moment, breadth-first over devices.
	SerialPacket Kind = iota
	// SerialDevice is the paper's first proposal: devices discovered
	// serially, but the port-attribute reads of the device under
	// discovery issued concurrently.
	SerialDevice
	// Parallel is the paper's propagation-order exploration: every
	// completion immediately triggers all requests it enables, with no
	// global ordering.
	Parallel
	// Distributed is the paper's future-work variant: several
	// collaborating fabric managers run Parallel discovery and the
	// primary merges their views.
	Distributed
	// Partial is the paper's future-work variant that explores only the
	// portion of the fabric affected by a topological change instead of
	// rediscovering everything.
	Partial
	numKinds
)

// PaperKinds returns the three algorithms evaluated in the paper, in the
// order of its figures.
func PaperKinds() []Kind { return []Kind{SerialPacket, SerialDevice, Parallel} }

// Valid reports whether k names an implemented algorithm.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Slug returns the canonical machine-readable algorithm name, used by
// command-line flags and JSON encodings (scenario files, run reports).
func (k Kind) Slug() string {
	switch k {
	case SerialPacket:
		return "serial-packet"
	case SerialDevice:
		return "serial-device"
	case Parallel:
		return "parallel"
	case Distributed:
		return "distributed"
	case Partial:
		return "partial"
	default:
		return fmt.Sprintf("kind-%d", int(k))
	}
}

// KindBySlug resolves a canonical machine-readable algorithm name.
func KindBySlug(s string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.Slug() == s {
			return k, true
		}
	}
	return 0, false
}

// String names the algorithm as the paper does.
func (k Kind) String() string {
	switch k {
	case SerialPacket:
		return "Serial Packet"
	case SerialDevice:
		return "Serial Device"
	case Parallel:
		return "Parallel"
	case Distributed:
		return "Distributed"
	case Partial:
		return "Partial"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}
