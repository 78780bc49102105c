package asi

import "fmt"

// PI5EventCode classifies a PI-5 event report.
type PI5EventCode uint8

const (
	// PI5PortUp reports that a local port transitioned to active (a live
	// device appeared at the other end of the link).
	PI5PortUp PI5EventCode = iota + 1
	// PI5PortDown reports that a local port lost its link partner.
	PI5PortDown
)

// String names the event code.
func (c PI5EventCode) String() string {
	switch c {
	case PI5PortUp:
		return "port-up"
	case PI5PortDown:
		return "port-down"
	default:
		return fmt.Sprintf("PI5EventCode(%d)", uint8(c))
	}
}

// PI5 is the payload of a PI-5 event-reporting packet: a device noticed a
// state change on one of its local ports and notifies the fabric manager,
// which then starts the change assimilation process (paper section 2). The
// reporting device identifies itself by DSN because the FM may not yet have
// a current path to it.
type PI5 struct {
	Code     PI5EventCode
	Port     uint8
	Reporter DSN
	// Sequence disambiguates bursts of events from the same device so
	// the FM can ignore stale reports that arrive after a rediscovery.
	Sequence uint32
}

// pi5Size is the wire size of a PI-5 payload: code(1) port(1) dsn(8)
// seq(4).
const pi5Size = 14

// WireSize returns the payload size on the wire in bytes.
func (p PI5) WireSize() int { return pi5Size }

// String summarizes the event for traces.
func (p PI5) String() string {
	return fmt.Sprintf("pi5{%s port=%d from=%s seq=%d}", p.Code, p.Port, p.Reporter, p.Sequence)
}
